//! Crash/recovery integration test: a node stops abruptly (losing its
//! volatile view, token, and buffers), the majority reforms without it,
//! and a restarted incarnation recovers from its stable-storage
//! snapshot, re-merges, and catches up on everything it missed — with
//! no value delivered twice at any location and the merged
//! cross-incarnation trace passing the VS/TO safety checkers. A bare
//! endpoint restarted after its links reconnected is heard at once.

use gcs_core::check_conformance;
use gcs_model::{ProcId, Value};
use gcs_net::cluster::{wait_for, ClusterConfig, LoopbackCluster};
use gcs_net::{Incoming, TcpTransport, TransportConfig};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use gcs_vsimpl::Wire;
use std::collections::{BTreeMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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

/// Waits until `rx` hands up a frame from node 0, taking whatever else
/// arrives; `true` if one came within `within`.
fn hears_node_0(rx: &mpsc::Receiver<Incoming>, within: Duration) -> bool {
    let deadline = Instant::now() + within;
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if let Ok(Incoming::Wire { from: ProcId(0), .. }) = rx.recv_timeout(left) {
            return true;
        }
    }
    false
}

/// A restarted endpoint is heard from its first frame on, however often
/// the link from its previous incarnation reconnected: peers keep the
/// highest connection generation they have seen from a node, and a new
/// incarnation's generations start from its own start time, above every
/// earlier one's, with nothing passed in by the caller.
#[test]
fn a_restarted_endpoint_is_heard_from_its_first_frame() {
    let listeners: Vec<TcpListener> =
        (0..2).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let peers: BTreeMap<ProcId, SocketAddr> =
        (0..2).zip(&listeners).map(|(p, l)| (ProcId(p), l.local_addr().unwrap())).collect();
    // Kept open across the restart, so node 0 comes back on its port.
    let keep = listeners[0].try_clone().expect("clone listener");
    let mut endpoints = Vec::new();
    let mut events = Vec::new();
    for (p, listener) in (0..2).zip(listeners) {
        let (tx, rx) = mpsc::channel();
        let config = TransportConfig::default();
        endpoints
            .push(TcpTransport::start(ProcId(p), listener, &peers, config, tx).expect("start"));
        events.push(rx);
    }
    let (t0, t1, rx1) = (&endpoints[0], &endpoints[1], &events[1]);

    // Five reconnects of the link 0 → 1, each one heard at node 1.
    for kick in 0..=5 {
        if kick > 0 {
            let before = t0.generation(ProcId(1));
            t0.kick(ProcId(1));
            let relinked = || t0.generation(ProcId(1)) > before && t0.connected(ProcId(1));
            assert!(wait_for(Duration::from_secs(5), relinked), "no reconnect after kick {kick}");
        }
        let heard = wait_for(Duration::from_secs(5), || {
            t0.send(ProcId(1), Wire::Probe);
            hears_node_0(rx1, Duration::from_millis(20))
        });
        assert!(heard, "node 1 heard nothing from node 0 after kick {kick}");
    }

    assert!(t0.stop().clean(), "node 0 leaked a thread");
    let (tx, _rx0) = mpsc::channel();
    let listener = keep.try_clone().expect("clone listener");
    let t0 = TcpTransport::start(ProcId(0), listener, &peers, TransportConfig::default(), tx)
        .expect("restart");
    while rx1.try_recv().is_ok() {}
    t0.send(ProcId(1), Wire::Probe);
    assert!(
        hears_node_0(rx1, Duration::from_secs(2)),
        "node 1 refused the restarted node's first frame"
    );
    assert!(t0.stop().clean() && t1.stop().clean(), "a thread outlived its endpoint");
}
