//! A replicated key-value store over totally ordered broadcast — the
//! replicated-state-machine construction of the paper's footnote 3.
//!
//! Writes from different processors are serialized by the TO service;
//! each node replays its delivered stream into a local `SeqMemory`
//! replica. Reads are local (free); the example demonstrates convergence
//! and checks sequential consistency, across a crash and recovery of one
//! replica. Two compare-and-swaps race on `count`: which one lands is
//! decided by the delivered order, so the expected final state is derived
//! from that order, not written down in advance.
//!
//! Run with: `cargo run --example replicated_kv`

use pgcs::apps::rsm::replay_and_check;
use pgcs::apps::seqmem::{check_sequential_consistency, SeqMemory};
use pgcs::apps::{KvCmd, KvStore};
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

    let cas = |key: &str, expect, value, tag| KvCmd::Cas { key: key.into(), expect, value, tag };
    let writes = [
        (ProcId(0), KvCmd::Put { key: "name".into(), value: 1, tag: 0 }),
        (ProcId(1), KvCmd::Put { key: "count".into(), value: 10, tag: 1 }),
        (ProcId(2), cas("count", Some(10), 15, 2)),
        (ProcId(0), cas("count", Some(10), 7, 3)),
        (ProcId(1), cas("name", Some(1), 0, 4)),
        (ProcId(0), KvCmd::Put { key: "done".into(), value: 1, tag: 5 }),
    ];
    println!("submitting {} writes:", writes.len());
    for (i, (p, cmd)) in writes.iter().enumerate() {
        println!("  {p}: {cmd:?}");
        stack.schedule_value(t0 + i as u64 * 30, *p, cmd.encode());
    }

    stack.run_until(t0 + 200 * pi);

    // Replay each node's delivered stream into a replica, reading between
    // applications.
    let streams: Vec<Vec<Value>> =
        (0..n).map(|i| stack.delivered(ProcId(i)).into_iter().map(|(_, a)| a).collect()).collect();
    let mut replicas: Vec<SeqMemory> = (0..n).map(|_| SeqMemory::new()).collect();
    for (replica, stream) in replicas.iter_mut().zip(&streams) {
        for payload in stream {
            replica.deliver(payload);
            replica.read("count");
        }
    }
    let longest = streams.iter().max_by_key(|s| s.len()).expect("n > 0");

    // The expected state is the delivered order's: the streams are
    // prefix-related, equal-length replays agree, and the longest one's
    // final state is what every replica must reach.
    let replays = replay_and_check(KvStore::default(), &streams).expect("streams converge");
    let expected = replays.iter().max_by_key(|r| r.applied()).expect("n > 0").state();
    println!("\ndelivered order:");
    for v in longest {
        println!("  {:?}", KvCmd::decode(v).expect("every delivered value is a write"));
    }

    println!("\nreplica states after replay:");
    for (i, r) in replicas.iter().enumerate() {
        let s = r.replica().state();
        println!(
            "  p{i}: applied {} updates, count = {:?}, name = {:?}, done = {:?}",
            r.replica().applied(),
            s.get("count"),
            s.get("name"),
            s.get("done"),
        );
    }

    // Convergence: every replica applied all writes and reached the state
    // the common order produces.
    for (i, r) in replicas.iter().enumerate() {
        assert_eq!(r.replica().applied(), writes.len(), "p{i} missed updates");
        assert_eq!(r.replica().state(), expected, "p{i} diverged");
    }
    assert_eq!(expected.get("done"), Some(1));

    check_sequential_consistency(&replicas, longest).expect("sequentially consistent");
    println!(
        "\nreplicated_kv OK: all replicas converged (count = {:?}), reads consistent.",
        expected.get("count")
    );
}
