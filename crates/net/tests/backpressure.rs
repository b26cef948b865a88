//! Slow-consumer backpressure: the per-peer writer queue is bounded, so
//! a peer that stops draining its socket costs dropped frames — counted
//! under `net_frames_dropped_total{reason="queue_full"}` and recorded in
//! the trace ring — never unbounded memory. A cluster running with the
//! same tiny queue still delivers in total order and passes the VS/TO
//! safety checkers, because the protocol recovers dropped tokens through
//! its token-loss and probe timers.

use gcs_core::cause::check_trace;
use gcs_core::to_trace::check_to_trace;
use gcs_model::{ProcId, Value, View, ViewId};
use gcs_net::cluster::{wait_for, ClusterConfig, LoopbackCluster};
use gcs_net::transport::{Incoming, TcpTransport, TransportConfig, COALESCE_FRAMES};
use gcs_obs::{DropReason, EventKind, Obs};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use gcs_vsimpl::Wire;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

/// A writer facing a peer that accepts connections but never reads:
/// once the socket buffers fill, the writer blocks mid-frame, the
/// bounded send queue fills behind it, and every further send must be
/// dropped and counted — the queue never grows past its configured
/// depth.
#[test]
fn slow_consumer_fills_queue_and_drops_are_counted() {
    const QUEUE: usize = 8;
    const SENDS: u64 = 200;

    // The sink: accepts and holds connections, never reads a byte.
    let sink = TcpListener::bind("127.0.0.1:0").expect("bind sink");
    let sink_addr = sink.local_addr().expect("sink addr");
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in sink.incoming() {
            match stream {
                Ok(s) => held.push(s),
                Err(_) => break,
            }
        }
    });

    let me = ProcId(0);
    let peer = ProcId(1);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind transport");
    let mut peers = BTreeMap::new();
    peers.insert(me, listener.local_addr().expect("local addr"));
    peers.insert(peer, sink_addr);
    let (events_tx, _events_rx) = mpsc::channel::<Incoming>();
    let obs = Obs::new();
    let transport = TcpTransport::start_with_obs(
        me,
        listener,
        &peers,
        TransportConfig { send_queue: QUEUE, ..Default::default() },
        events_tx,
        obs.clone(),
    )
    .expect("start transport");
    assert!(
        wait_for(Duration::from_secs(5), || transport.connected(peer)),
        "writer never connected to the sink"
    );

    // Large frames (~200 KB encoded) so a handful saturates the socket
    // buffers and the writer blocks mid-write.
    let big = Wire::Join {
        view: View { id: ViewId { epoch: 1, origin: me }, set: (0..50_000).map(ProcId).collect() },
    };
    for _ in 0..SENDS {
        transport.send(peer, big.clone());
    }

    let snap = obs.registry.snapshot();
    let label = [("node", "0"), ("reason", "queue_full")];
    let queue_full = snap.counter_value("net_frames_dropped_total", &label);
    let sent = snap.counter_value("net_frames_sent_total", &[("node", "0")]);
    assert!(queue_full > 0, "a non-draining peer must produce queue_full drops");
    // Conservation: every frame was written, dropped, or sits in the
    // bounded queue / the writer's in-flight coalescing batch (counted
    // as sent or dropped only once the batch write resolves).
    assert!(
        sent + queue_full + QUEUE as u64 + COALESCE_FRAMES as u64 >= SENDS,
        "frames unaccounted for: sent={sent} dropped={queue_full}"
    );
    assert!(sent + queue_full <= SENDS, "sent={sent} dropped={queue_full} exceed submissions");

    // The trace ring carries the same story, one Drop event per count.
    let trace_drops = obs
        .trace
        .snapshot()
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::Drop { reason: DropReason::QueueFull, node: 0, .. })
        })
        .count() as u64;
    assert_eq!(trace_drops, queue_full, "metric and trace disagree on drops");

    transport.stop();
}

/// The same tiny queue inside a live cluster: a partition produces
/// counted drops (blocked-peer probes and token traffic), yet the ring
/// reforms, total order holds across every node, and the merged trace
/// passes the VS/TO checkers.
#[test]
fn tiny_send_queue_cluster_survives_partition_and_passes_checkers() {
    let n = 3u32;
    let obs = Obs::with_trace_capacity(1 << 18);
    let cluster = LoopbackCluster::start_with_obs(
        ClusterConfig {
            n,
            delta_ms: 20,
            transport: TransportConfig { send_queue: 8, ..Default::default() },
        },
        obs.clone(),
    )
    .expect("bind loopback");
    let full_view = |c: &LoopbackCluster| {
        c.views().iter().all(|vs| vs.last().is_some_and(|v| v.size() == n as usize))
    };
    assert!(wait_for(Duration::from_secs(20), || full_view(&cluster)), "initial view never formed");

    for i in 0..20u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i + 1));
    }
    assert!(cluster.await_deliveries(20, Duration::from_secs(30)), "warmup stalled");

    // Partition p2: probes and token frames toward it are dropped (and
    // counted) at the senders until the heal.
    let epoch_before = cluster.views()[0].last().expect("has view").id.epoch;
    cluster.isolate(ProcId(2));
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster.views()[0].last().is_some_and(|v| !v.set.contains(&ProcId(2)))
        }),
        "no minority view formed after the partition"
    );
    for i in 20..35u64 {
        cluster.submit(ProcId((i % 2) as u32), Value::from_u64(i + 1));
    }
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster.delivered()[..2].iter().all(|d| d.len() >= 35)
        }),
        "majority stalled during partition"
    );
    cluster.rejoin(ProcId(2));
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster
                .views()
                .iter()
                .all(|vs| vs.last().is_some_and(|v| v.size() == 3 && v.id.epoch > epoch_before))
        }),
        "merge never completed"
    );
    for i in 35..50u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i + 1));
    }
    assert!(
        cluster.await_deliveries(50, Duration::from_secs(60)),
        "deliveries stalled after merge: {:?}",
        cluster.delivered().iter().map(|d| d.len()).collect::<Vec<_>>()
    );

    let delivered = cluster.delivered();
    let trace = cluster.stop();
    for (i, d) in delivered.iter().enumerate() {
        assert_eq!(&delivered[0][..50], &d[..50], "total orders diverge at node {i}");
    }
    let to = check_to_trace(&to_obs(&trace).untimed());
    assert!(to.ok(), "TO checker failed: {:?}", to.violations.first());
    let cause = check_trace(&vs_actions(&trace), &ProcId::range(n));
    assert!(cause.ok(), "cause checker failed: {:?}", cause.violations.first());

    // Every drop the partition caused is visible in the registry and
    // mirrored one-for-one in the trace ring.
    assert_eq!(obs.trace.evicted(), 0, "trace window must cover the run");
    let dropped = obs.registry.snapshot().counter_total("net_frames_dropped_total");
    assert!(dropped > 0, "a partition must produce counted drops");
    let trace_drops =
        obs.trace.snapshot().iter().filter(|e| matches!(e.kind, EventKind::Drop { .. })).count()
            as u64;
    assert_eq!(dropped, trace_drops, "metric and trace disagree on drops");
}
