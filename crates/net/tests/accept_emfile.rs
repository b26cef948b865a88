//! The accept loop outlives a descriptor shortage. While the process is
//! out of descriptors `accept` fails with EMFILE; once they are back,
//! the endpoint serves new connections again instead of leaving its
//! port refusing them. A test binary of its own, because it fills the
//! whole process's descriptor table (up to the soft `RLIMIT_NOFILE`).

use gcs_model::{ProcId, Value};
use gcs_net::{write_frame, Frame, HelloKind, Incoming, TcpTransport, TransportConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn accept_loop_survives_running_out_of_descriptors() {
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
