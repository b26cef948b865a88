//! An idle endpoint costs nothing: its accept loop sleeps in `accept`
//! until someone connects, and `stop` wakes it with a connection of its
//! own, whatever address the listener is bound to. A test binary of its
//! own, because it finds the accept thread by name among the process's
//! threads.

use gcs_model::ProcId;
use gcs_net::{TcpTransport, TransportConfig};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

/// `voluntary_ctxt_switches` of every thread of this process named
/// `name`.
#[cfg(target_os = "linux")]
fn voluntary_switches(name: &str) -> Vec<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .flatten()
        .filter(|t| std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == name))
        .filter_map(|t| {
            let status = std::fs::read_to_string(t.path().join("status")).ok()?;
            let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .collect()
}

#[test]
fn an_idle_accept_loop_sleeps_until_stop_wakes_it() {
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
        // before it; a loop that polled would wake every few ms.
        #[cfg(target_os = "linux")]
        {
            // A new thread names itself, so wait for the name to show.
            let mut before = voluntary_switches("gcs-accept");
            for _ in 0..100 {
                if !before.is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                before = voluntary_switches("gcs-accept");
            }
            assert_eq!(before.len(), 1, "one accept loop, named");
            std::thread::sleep(Duration::from_millis(300));
            let after = voluntary_switches("gcs-accept");
            assert!(
                after[0] <= before[0] + 1,
                "{ip}: idle accept loop woke {before:?} → {after:?}"
            );
        }
        #[cfg(not(target_os = "linux"))]
        std::thread::sleep(Duration::from_millis(300));

        let report = t.stop();
        assert!(report.clean(), "{ip}: leaked {} threads", report.leaked);
        assert_eq!(report.joined, 1, "{ip}: the accept loop is the endpoint's one thread");
    }
}
