//! An idle endpoint costs nothing: its accept loop sleeps in `accept`
//! until someone connects, and `stop` wakes it with a connection of its
//! own, whatever address the listener is bound to; a peer writer sleeps
//! on its send queue, linked or severed, until a frame or a control
//! call wakes it. A test binary of its own, because it finds threads by
//! name among the process's threads; its tests take turns for the same
//! reason.

use gcs_model::ProcId;
use gcs_net::{TcpTransport, TransportConfig};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Held by each test: both count threads by name.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `voluntary_ctxt_switches` of every thread of this process named
/// `name`, in thread id order.
#[cfg(target_os = "linux")]
fn voluntary_switches(name: &str) -> Vec<u64> {
    let mut tasks: Vec<_> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .flatten()
        .filter_map(|t| Some((t.file_name().to_str()?.parse::<u64>().ok()?, t.path())))
        .collect();
    tasks.sort();
    tasks
        .into_iter()
        .filter(|(_, t)| std::fs::read_to_string(t.join("comm")).is_ok_and(|c| c.trim() == name))
        .filter_map(|(_, t)| {
            let status = std::fs::read_to_string(t.join("status")).ok()?;
            let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .collect()
}

/// Asserts that each of the `n` threads named `name` wakes at most once
/// over 300 ms; a thread that polled would wake every few ms.
fn sleeps_through_300ms(name: &str, n: usize, what: &str) {
    #[cfg(target_os = "linux")]
    {
        // A new thread names itself, so wait for the names to show.
        let mut before = voluntary_switches(name);
        for _ in 0..100 {
            if before.len() == n {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            before = voluntary_switches(name);
        }
        assert_eq!(before.len(), n, "{what}: {n} threads named {name}");
        std::thread::sleep(Duration::from_millis(300));
        let after = voluntary_switches(name);
        assert_eq!(after.len(), n, "{what}: {n} threads named {name}");
        for (b, a) in before.iter().zip(&after) {
            assert!(a <= &(b + 1), "{what}: idle {name} woke {before:?} → {after:?}");
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (name, n, what);
        std::thread::sleep(Duration::from_millis(300));
    }
}

/// Polls `cond` every millisecond for up to 5 s.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn an_idle_accept_loop_sleeps_until_stop_wakes_it() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for ip in ["127.0.0.1", "0.0.0.0"] {
        let listener = TcpListener::bind((ip, 0)).expect("bind");
        let (tx, _rx) = mpsc::channel();
        let t = TcpTransport::start(
            ProcId(0),
            listener,
            &BTreeMap::new(),
            TransportConfig::default(),
            tx,
        )
        .expect("start endpoint");

        // One switch for blocking in `accept`, if the first reading came
        // before it.
        sleeps_through_300ms("gcs-accept", 1, ip);

        let report = t.stop();
        assert!(report.clean(), "{ip}: leaked {} threads", report.leaked);
        assert_eq!(report.joined, 1, "{ip}: the accept loop is the endpoint's one thread");
    }
}

#[test]
fn a_peer_writer_sleeps_until_a_control_call_wakes_it() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let listeners: Vec<TcpListener> =
        (0..2).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let mut endpoints: Vec<Arc<TcpTransport>> = Vec::new();
    let mut _events = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let peers = BTreeMap::from([(ProcId(1 - i as u32), addrs[1 - i])]);
        let (tx, rx) = mpsc::channel();
        let config = TransportConfig::default();
        endpoints.push(
            TcpTransport::start(ProcId(i as u32), listener, &peers, config, tx).expect("start"),
        );
        _events.push(rx);
    }
    let (a, b) = (ProcId(0), ProcId(1));
    let (ta, tb) = (&endpoints[0], &endpoints[1]);
    let linked = || ta.connected(b) && tb.connected(a);
    eventually("the first connect", linked);
    // Linked and idle: each writer is parked in `recv`.
    sleeps_through_300ms("gcs-writer", 2, "linked");

    ta.sever(b);
    tb.sever(a);
    eventually("the sever", || !ta.connected(b) && !tb.connected(a));
    // Give the woken writers a moment to tear their links down and park.
    std::thread::sleep(Duration::from_millis(50));
    sleeps_through_300ms("gcs-writer", 2, "severed");

    // The heal's wake alone reconnects: nothing is sent.
    ta.heal(b);
    tb.heal(a);
    eventually("the reconnect after the heal", linked);
    assert_eq!(ta.frames_sent() + tb.frames_sent(), 0, "no traffic was sent");

    // A stop right after a sever finds every writer in reach of a wake.
    ta.sever(b);
    tb.sever(a);
    for t in &endpoints {
        let report = t.stop();
        assert!(report.clean(), "leaked {} threads", report.leaked);
    }
}
