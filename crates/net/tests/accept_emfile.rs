//! The accept loop outlives a descriptor shortage. While the process is
//! out of descriptors `accept` fails with EMFILE; once they are back,
//! the endpoint serves new connections again instead of leaving its
//! port refusing them. And `stop` still ends the endpoint while they
//! are gone. A test binary of its own, because its tests fill the whole
//! process's descriptor table (up to the soft `RLIMIT_NOFILE`), one
//! test at a time.

use gcs_model::{ProcId, Value};
use gcs_net::{write_frame, Frame, HelloKind, Incoming, TcpTransport, TransportConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Held by each test while it runs: two hoards at once would starve
/// each other.
static TABLE: Mutex<()> = Mutex::new(());

#[test]
fn accept_loop_survives_running_out_of_descriptors() {
    let _table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (tx, rx) = mpsc::channel();
    let t =
        TcpTransport::start(ProcId(0), listener, &BTreeMap::new(), TransportConfig::default(), tx)
            .expect("start endpoint");

    // Fill the descriptor table, then free one for the client's own
    // socket: the kernel completes its handshake, and every `accept` of
    // the loop meanwhile fails with EMFILE, pending connection or not.
    let mut hoard = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hoard.push(f);
    }
    hoard.pop();
    let starved = TcpStream::connect(addr).expect("the listener closed when descriptors ran out");
    std::thread::sleep(Duration::from_millis(100));
    drop(hoard);

    let mut client = TcpStream::connect(addr).expect("the port refuses connections");
    let hello = Frame::Hello { node: ProcId(u32::MAX), generation: 0, kind: HelloKind::Client };
    write_frame(&mut client, &hello).expect("write hello");
    write_frame(&mut client, &Frame::SubmitBatch(vec![Value::from_u64(7)])).expect("write submit");
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(Incoming::Submit { batch }) => assert_eq!(batch, vec![Value::from_u64(7)]),
        other => panic!("expected the submission, got {other:?}"),
    }

    drop((starved, client));
    let report = t.stop();
    assert!(report.clean(), "leaked {} threads", report.leaked);
}

/// `stop` wakes the accept loop with a connection of its own, which
/// needs a descriptor: it must stop an endpoint while the process holds
/// every descriptor it may open, with no connection that could free one.
#[test]
fn stop_succeeds_while_out_of_descriptors() {
    let _table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let (tx, _rx) = mpsc::channel();
    let t =
        TcpTransport::start(ProcId(0), listener, &BTreeMap::new(), TransportConfig::default(), tx)
            .expect("start endpoint");

    let mut hoard = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hoard.push(f);
    }
    let report = t.stop();
    drop(hoard);
    assert!(report.clean(), "leaked {} threads", report.leaked);
    assert_eq!(report.joined, 1, "the accept loop is the endpoint's one thread");
}
