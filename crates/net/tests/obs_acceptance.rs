//! The observability acceptance scenario: a five-node loopback cluster
//! under partition/merge fault injection serves a metrics endpoint whose
//! counters reconcile exactly with the merged trace ring, and the online
//! b/d bound monitors pass on a clean run but fire when a covert send
//! delay — a relay between the nodes — violates the configured δ
//! underneath a quiet-looking network.

use gcs_core::check_conformance;
use gcs_model::{ProcId, Value};
use gcs_net::cluster::{wait_for, ClusterConfig, LoopbackCluster};
use gcs_net::runtime::{Clock, HostedGroup, NetNode};
use gcs_net::transport::TransportConfig;
use gcs_obs::{BoundParams, EventKind, Obs, ObsEvent, StabilizationMonitor, TokenRoundMonitor};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use gcs_vsimpl::ProtoConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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

/// Submits `values` round-robin to a clean five-node cluster — patient
/// δ, no fault injection — once the boot-time link establishment has
/// aged past b, so every submit lands in a provably stabilized window.
/// Checks that the conformance checkers and both bound monitors pass (no
/// view installs later than `b` after the network quiesces, and every
/// submit is checked against and delivered within `d`), and returns the
/// trace ring's events.
fn clean_run(values: Vec<Value>) -> Vec<ObsEvent> {
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
    let quiesced = wait_for(Duration::from_secs(60), || {
        obs.trace.now_ms() > last_disturbance_ms(&obs) + params.b_ms() + 100
    });
    assert!(quiesced, "network never quiesced");

    let ops = values.len();
    for (i, v) in values.into_iter().enumerate() {
        cluster.submit(ProcId((i + 1) as u32 % n), v);
    }
    assert!(cluster.await_deliveries(ops, Duration::from_secs(60)), "clean-run deliveries stalled");
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
    assert_eq!(round.checked, ops as u64, "every stable-window submit must be checked");
    assert_checkers_pass(&cluster.stop(), n);
    events
}

/// On a clean run both bound monitors pass for 8-byte values.
#[test]
fn bound_monitors_pass_on_a_clean_run() {
    clean_run((1..=25).map(Value::from_u64).collect());
}

/// 1 KiB values — fingerprinted as words, not as the integers every
/// other case here submits — reach every node under the fingerprint
/// they were submitted with: each node's set of `Brcv` fingerprints is
/// the set of `Bcast` fingerprints, all 200 distinct.
#[test]
fn kib_values_reach_every_node_under_their_submitted_fingerprint() {
    let filler: Vec<u8> =
        (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    let values: Vec<Value> = (1..=200u64)
        .map(|i| {
            let off = (i as usize * 13) % (filler.len() - 1016);
            let mut bytes = i.to_be_bytes().to_vec();
            bytes.extend_from_slice(&filler[off..off + 1016]);
            Value::from(bytes)
        })
        .collect();
    let submitted: BTreeSet<u64> = values.iter().map(Value::fingerprint).collect();
    assert_eq!(submitted.len(), 200, "the values have distinct fingerprints");

    let events = clean_run(values);
    let fingerprints = |node: Option<u32>| -> BTreeSet<u64> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Bcast { value, .. } if node.is_none() => Some(value),
                EventKind::Brcv { node: p, value, .. } if node == Some(p) => Some(value),
                _ => None,
            })
            .collect()
    };
    assert_eq!(fingerprints(None), submitted, "every submit is traced under its fingerprint");
    for p in 0..5 {
        assert_eq!(fingerprints(Some(p)), submitted, "node {p} delivered other fingerprints");
    }
}

/// A TCP relay in front of one node that forwards each connection's
/// first frame (the `Hello`) at once and sleeps `delay` before every
/// later frame, one frame at a time: a slow network that records no
/// fault event. Peer links carry bytes one way only, so nothing is
/// relayed back.
struct Relay {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    relayed: Arc<Mutex<Vec<Relayed>>>,
}

/// One relayed connection: both of its sockets and the thread pumping it.
struct Relayed {
    down: TcpStream,
    up: TcpStream,
    pump: JoinHandle<()>,
}

impl Relay {
    fn start(upstream: SocketAddr, delay: Duration) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let addr = listener.local_addr().expect("relay address");
        let stopping = Arc::new(AtomicBool::new(false));
        let relayed = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (stopping, relayed) = (stopping.clone(), relayed.clone());
            std::thread::spawn(move || {
                for down in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(down) = down else { continue };
                    let Ok(up) = TcpStream::connect(upstream) else { continue };
                    let _ = up.set_nodelay(true);
                    let (from, to) =
                        (down.try_clone().expect("clone"), up.try_clone().expect("clone"));
                    let pump = std::thread::spawn(move || pump(from, to, delay));
                    relayed.lock().unwrap().push(Relayed { down, up, pump });
                }
            })
        };
        Relay { addr, stopping, accept, relayed }
    }

    /// Stops accepting, closes every relayed connection and joins every
    /// thread the relay started.
    fn stop(self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.accept.join().expect("relay accept thread");
        for r in std::mem::take(&mut *self.relayed.lock().unwrap()) {
            let _ = r.down.shutdown(Shutdown::Both);
            let _ = r.up.shutdown(Shutdown::Both);
            r.pump.join().expect("relay pump thread");
        }
    }
}

/// Copies length-prefixed frames from `from` to `to`, every frame but
/// the first after `delay`, until either side closes; then closes both.
fn pump(mut from: TcpStream, mut to: TcpStream, delay: Duration) {
    let mut frame = Vec::new();
    for i in 0.. {
        let mut len = [0u8; 4];
        if from.read_exact(&mut len).is_err() {
            break;
        }
        frame.clear();
        frame.extend_from_slice(&len);
        frame.resize(4 + u32::from_be_bytes(len) as usize, 0);
        if from.read_exact(&mut frame[4..]).is_err() {
            break;
        }
        if i > 0 {
            std::thread::sleep(delay);
        }
        if to.write_all(&frame).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// A covert delay injected *below* the event stream — every frame on a
/// peer link sleeps 150 ms in a relay while the trace shows a quiet
/// network — breaks both bounds for δ = 20 ms, and the monitors catch
/// it: views churn past the stabilization deadline (token rotation now
/// exceeds the token timeout) and deliveries miss `d` or never arrive.
#[test]
fn bound_monitors_fire_under_covert_send_delay() {
    let n = 3u32;
    let delta_ms = 20u64;
    let params = BoundParams::standard(n, delta_ms); // b = 420 ms, d = 300 ms
    let obs = Obs::with_trace_capacity(1 << 18);
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback")).collect();
    let relays: Vec<Relay> = listeners
        .iter()
        .map(|l| Relay::start(l.local_addr().expect("address"), Duration::from_millis(150)))
        .collect();
    // Every node reaches every other through that node's relay.
    let peers: BTreeMap<ProcId, SocketAddr> =
        (0..n).zip(&relays).map(|(p, r)| (ProcId(p), r.addr)).collect();
    let clock = Clock::new();
    let nodes: Vec<NetNode> = (0..n)
        .zip(listeners)
        .map(|(p, listener)| {
            let ring =
                HostedGroup { proto: ProtoConfig::standard(n, delta_ms), obs: None, stable: None };
            NetNode::start(
                ProcId(p),
                listener,
                &peers,
                TransportConfig::default(),
                clock.clone(),
                obs.clone(),
                BTreeMap::from([(0, ring)]),
            )
            .expect("start node")
        })
        .collect();

    // Links come up promptly (the relay does not delay the Hello);
    // after that the stream looks quiet while every frame crawls.
    assert!(
        wait_for(Duration::from_secs(10), || {
            nodes.iter().all(|node| {
                (0..n).map(ProcId).all(|q| q == node.id() || node.transport().connected(q))
            })
        }),
        "links never came up"
    );

    // Submit well past b from the boot disturbances so the pairs are
    // eligible, spread out so some land mid-churn.
    std::thread::sleep(Duration::from_millis(2 * params.b_ms()));
    for i in 1..=30u64 {
        if let Some(ring) = nodes[(i % n as u64) as usize].group(0) {
            ring.submit(Value::from_u64(i));
        }
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
    for node in nodes {
        assert!(node.stop().1.clean(), "a transport thread outlived its node");
    }
    for relay in relays {
        relay.stop();
    }
}
