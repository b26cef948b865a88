//! Connection hygiene: an endpoint holds resources only for its live
//! connections. Clients and peers that come and go, and links kicked
//! and re-established, leave no descriptor open and no reader thread
//! unjoined behind them. A test binary of its own, so the descriptor
//! count belongs to this test alone.

use gcs_model::{ProcId, Value};
use gcs_net::cluster::wait_for;
use gcs_net::{write_frame, Frame, HelloKind, Incoming, TcpTransport, TransportConfig};
use gcs_vsimpl::Wire;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: u64 = 200;
const KICKS: u64 = 50;
/// Descriptors the endpoints may hold above their count right after
/// start: a link in the middle of being replaced, a reader not yet
/// joined.
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, Iterator::count)
}

fn endpoint(
    me: u32,
    listener: TcpListener,
    peers: &BTreeMap<ProcId, SocketAddr>,
) -> (Arc<TcpTransport>, Receiver<Incoming>) {
    let (tx, rx) = mpsc::channel();
    let t = TcpTransport::start(ProcId(me), listener, peers, TransportConfig::default(), tx)
        .expect("start endpoint");
    (t, rx)
}

/// Opens a connection to `addr`, sends `frames` and waits until `rx`
/// has the event they cause; the connection closes when this returns.
fn session(addr: SocketAddr, frames: &[Frame], rx: &Receiver<Incoming>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    for f in frames {
        write_frame(&mut s, f).expect("write");
    }
    rx.recv_timeout(Duration::from_secs(5)).expect("session never reached the node");
}

#[test]
fn sessions_and_kicks_leave_no_descriptors_behind() {
    let la = TcpListener::bind("127.0.0.1:0").expect("bind a");
    let lb = TcpListener::bind("127.0.0.1:0").expect("bind b");
    let peers = BTreeMap::from([
        (ProcId(0), la.local_addr().expect("addr a")),
        (ProcId(1), lb.local_addr().expect("addr b")),
    ]);
    let addr_a = peers[&ProcId(0)];
    let (a, rx_a) = endpoint(0, la, &peers);
    let (b, _rx_b) = endpoint(1, lb, &peers);
    assert!(
        wait_for(Duration::from_secs(5), || a.connected(ProcId(1)) && b.connected(ProcId(0))),
        "links never came up"
    );
    let base = open_fds();

    for i in 0..SESSIONS {
        let client =
            Frame::Hello { node: ProcId(u32::MAX), generation: 0, kind: HelloKind::Client };
        session(addr_a, &[client, Frame::SubmitBatch(vec![Value::from_u64(i)])], &rx_a);
        let peer = Frame::Hello { node: ProcId(7), generation: i + 1, kind: HelloKind::Peer };
        session(addr_a, &[peer, Frame::Peer(Wire::Probe)], &rx_a);
    }

    for i in 0..KICKS {
        let (kicker, kicked) = if i % 2 == 0 { (&a, ProcId(1)) } else { (&b, ProcId(0)) };
        let before = kicker.generation(kicked);
        kicker.kick(kicked);
        assert!(
            wait_for(Duration::from_secs(5), || {
                kicker.generation(kicked) > before && kicker.connected(kicked)
            }),
            "kick {i}: the link never came back"
        );
    }

    let settled = wait_for(Duration::from_secs(5), || open_fds() <= base + SLACK);
    let after = open_fds();
    eprintln!("open descriptors: {base} after start, {after} after the sessions and kicks");
    assert!(settled, "{} descriptors more than after start", after - base);

    for (name, t) in [("a", &a), ("b", &b)] {
        let report = t.stop();
        assert_eq!(report.leaked, 0, "endpoint {name} leaked {} threads", report.leaked);
    }
}
