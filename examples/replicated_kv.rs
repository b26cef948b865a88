//! A replicated key-value store over totally ordered broadcast — the
//! replicated-state-machine construction of the paper's footnote 3.
//!
//! Writes from different processors are serialized by the TO service;
//! each node replays its delivered stream into a local `SeqMemory`
//! replica. Reads are local (free); the example demonstrates convergence
//! and checks sequential consistency, across a crash and recovery of one
//! replica.
//!
//! Run with: `cargo run --example replicated_kv`

use pgcs::apps::seqmem::{check_sequential_consistency, SeqMemory};
use pgcs::apps::KvOp;
use pgcs::harness::{Stack, StackConfig};
use pgcs::model::failure::FailureScript;
use pgcs::model::{ProcId, Value};

fn main() {
    let n = 3u32;
    let mut stack = Stack::new(StackConfig::standard(n, 5, 99));
    let pi = stack.config().proto.pi;
    let t0 = 4 * pi;

    // p2 crashes for a while in the middle of the write stream, then
    // recovers (without losing state) and catches up.
    let mut script = FailureScript::new();
    script.crash(t0 + 100, ProcId(2)).recover(t0 + 40 * pi, ProcId(2));
    stack.load_failures(&script);

    let writes = [
        (ProcId(0), KvOp::Put { key: "name".into(), value: 1 }),
        (ProcId(1), KvOp::Put { key: "count".into(), value: 10 }),
        (ProcId(2), KvOp::Inc { key: "count".into(), by: 5 }),
        (ProcId(0), KvOp::Inc { key: "count".into(), by: -3 }),
        (ProcId(1), KvOp::Del { key: "name".into() }),
        (ProcId(0), KvOp::Put { key: "done".into(), value: 1 }),
    ];
    println!("submitting {} writes:", writes.len());
    for (i, (p, op)) in writes.iter().enumerate() {
        println!("  {p}: {op:?}");
        stack.schedule_value(t0 + i as u64 * 30, *p, op.encode());
    }

    stack.run_until(t0 + 200 * pi);

    // Replay each node's delivered stream into a replica, reading between
    // applications.
    let mut replicas: Vec<SeqMemory> = (0..n).map(|_| SeqMemory::new()).collect();
    let mut longest: Vec<Value> = Vec::new();
    for (i, replica) in replicas.iter_mut().enumerate() {
        let stream: Vec<Value> =
            stack.delivered(ProcId(i as u32)).iter().map(|(_, a)| a.clone()).collect();
        for payload in &stream {
            replica.deliver(payload);
            replica.read("count");
        }
        if stream.len() > longest.len() {
            longest = stream;
        }
    }

    println!("\nreplica states after replay:");
    for (i, r) in replicas.iter().enumerate() {
        println!(
            "  p{i}: applied {} updates, count = {:?}, done = {:?}",
            r.applied(),
            r.store().get("count"),
            r.store().get("done"),
        );
    }

    // Convergence: every replica applied all writes and agrees.
    for (i, r) in replicas.iter().enumerate() {
        assert_eq!(r.applied(), writes.len(), "p{i} missed updates");
        assert_eq!(r.store().get("count"), Some(12));
        assert_eq!(r.store().get("name"), None);
        assert_eq!(r.store().get("done"), Some(1));
    }

    check_sequential_consistency(&replicas, &longest).expect("sequentially consistent");
    println!("\nreplicated_kv OK: all replicas converged (count = 12), reads consistent.");
}
