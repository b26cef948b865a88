//! E12 — sequentially consistent replicated memory over TO (Section 3,
//! footnote 3).
//!
//! Writes travel through the totally ordered broadcast; reads are local.
//! The experiment replays each client's delivered stream into a replica,
//! interleaves deterministic reads, checks sequential consistency against
//! the common order, and contrasts the (zero) read latency of the
//! sequentially consistent memory with the atomic variant, where reads
//! are serialized through the broadcast and pay the full delivery
//! latency.
//!
//! The two variants are independent simulations with their own seeds and
//! their own [`StackConfig`]s (each derives π from its own config rather
//! than borrowing the other block's), so they fan out through
//! [`par_seeds`] like every other experiment.

use crate::{row, Table};
use crate::{Stack, StackConfig};
use gcs_apps::seqmem::{check_sequential_consistency, SeqMemory};
use gcs_apps::AtomicMemory;
use gcs_ioa::par_seeds;
use gcs_model::{ProcId, Time, Value};
use std::collections::BTreeMap;

fn mean(v: &[Time]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<Time>() as f64 / v.len() as f64
    }
}

/// The sequentially consistent variant: writes through TO, local reads.
fn seqmem_row(quick: bool) -> Vec<String> {
    let n = 3u32;
    let writes = if quick { 8 } else { 30 };
    let keys = ["x", "y", "z"];

    let config = StackConfig::standard(n, 5, 1201);
    let mut stack = Stack::new(config);
    let pi = stack.config().proto.pi;
    let start = 4 * pi;
    let mut write_time: BTreeMap<Value, Time> = BTreeMap::new();
    for i in 0..writes {
        let payload = SeqMemory::write(keys[i % keys.len()], i as i64, i as u64);
        let t = start + i as Time * 15;
        write_time.insert(payload.clone(), t);
        stack.schedule_value(t, ProcId(i as u32 % n), payload);
    }
    stack.run_until(start + writes as Time * 15 + 60 * pi);

    // Replay deliveries into replicas, reading every key after each apply.
    let mut replicas: Vec<SeqMemory> = (0..n).map(|_| SeqMemory::new()).collect();
    let mut longest: Vec<Value> = Vec::new();
    for (i, replica) in replicas.iter_mut().enumerate() {
        let stream: Vec<Value> =
            stack.delivered(ProcId(i as u32)).iter().map(|(_, a)| a.clone()).collect();
        for payload in &stream {
            replica.deliver(payload);
            for k in keys {
                replica.read(k);
            }
        }
        if stream.len() > longest.len() {
            longest = stream;
        }
    }
    let sc_ok = check_sequential_consistency(&replicas, &longest);
    let reads_checked: usize = replicas.iter().map(|r| r.reads().len()).sum();

    // Write latency: bcast → first brcv anywhere (commit visibility).
    let mut write_lats: Vec<Time> = Vec::new();
    for ev in stack.to_obs().events() {
        if let gcs_core::properties::ToObs::Brcv { a, .. } = &ev.action {
            if let Some(&t0) = write_time.get(a) {
                write_lats.push(ev.time - t0);
                write_time.remove(a);
            }
        }
    }

    row![
        "sequentially consistent",
        writes,
        reads_checked,
        if sc_ok.is_ok() { "✓" } else { "✗" },
        "0 (local)",
        format!("{:.0}", mean(&write_lats))
    ]
    .to_vec()
}

/// The atomic variant's run: every replica's read outputs (in delivery
/// order) and the read latencies.
fn atomic_run(quick: bool) -> (Vec<Vec<Option<i64>>>, Vec<Time>) {
    let n = 3u32;
    let ops = if quick { 8 } else { 30 };
    let keys = ["x", "y", "z"];

    let config = StackConfig::standard(n, 5, 1301);
    let mut stack = Stack::new(config);
    let pi = stack.config().proto.pi;
    let start = 4 * pi;
    let mut read_time: BTreeMap<Value, Time> = BTreeMap::new();
    for i in 0..ops {
        let t = start + i as Time * 15;
        let key = keys[i % keys.len()];
        let payload = if i % 2 == 0 {
            SeqMemory::write(key, i as i64, i as u64)
        } else {
            // Reads read the written keys; the tag keeps them distinct
            // payloads so their latencies can be matched up.
            let read = AtomicMemory::read_op(key, i as u64);
            read_time.insert(read.clone(), t);
            read
        };
        stack.schedule_value(t, ProcId(i as u32 % n), payload);
    }
    stack.run_until(start + ops as Time * 15 + 60 * pi);
    let mut read_lats: Vec<Time> = Vec::new();
    for ev in stack.to_obs().events() {
        if let gcs_core::properties::ToObs::Brcv { a, .. } = &ev.action {
            if let Some(&t0) = read_time.get(a) {
                read_lats.push(ev.time - t0);
                read_time.remove(a);
            }
        }
    }
    let outputs = (0..n)
        .map(|i| {
            let mut replica = AtomicMemory::new();
            for (_, a) in &stack.delivered(ProcId(i)) {
                replica.deliver(a);
            }
            replica.outputs().to_vec()
        })
        .collect();
    (outputs, read_lats)
}

/// Whether every pair of adjacent replicas' outputs agree on their common
/// prefix.
fn outputs_agree(outputs: &[Vec<Option<i64>>]) -> bool {
    outputs.windows(2).all(|w| {
        let min = w[0].len().min(w[1].len());
        w[0][..min] == w[1][..min]
    })
}

/// The atomic variant: reads are serialized through TO as well.
fn atomic_row(quick: bool) -> Vec<String> {
    let ops = if quick { 8 } else { 30 };
    let (outputs, read_lats) = atomic_run(quick);
    let atomic_ok = outputs_agree(&outputs);

    row![
        "atomic",
        ops,
        outputs.iter().map(|o| o.len()).sum::<usize>(),
        if atomic_ok { "✓" } else { "✗" },
        format!("{:.0}", mean(&read_lats)),
        format!("{:.0}", mean(&read_lats))
    ]
    .to_vec()
}

/// One variant's table row: `which` 0 is the sequentially consistent
/// memory, anything else the atomic one. Exposed (like `e05::seed_counts`)
/// so the determinism regression can compare worker counts directly.
pub fn variant_row(which: u64, quick: bool) -> Vec<String> {
    if which == 0 {
        seqmem_row(quick)
    } else {
        atomic_row(quick)
    }
}

/// Runs the experiment: both variants fan out in parallel, rows are
/// aggregated in variant order.
pub fn run(quick: bool) -> Vec<Table> {
    let rows = par_seeds(&[0, 1], |which| variant_row(which, quick));

    let mut t = Table::new(
        "E12 — replicated memory over TO (footnote 3)",
        &["variant", "ops", "reads checked", "consistency", "read latency", "write/commit latency"],
    );
    for cells in rows {
        t.row(&cells);
    }
    t.note(
        "Expected shape: sequentially consistent reads are free (local); \
         atomic reads pay the totally-ordered-broadcast latency (≈ the write \
         latency, a couple of token rotations).",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn memory_is_consistent_and_reads_are_cheap_only_in_seqmem() {
        let tables = super::run(true);
        let rows = tables[0].rows();
        assert_eq!(rows[0][3], "✓", "sequential consistency violated");
        assert_eq!(rows[1][3], "✓", "atomic outputs diverged");
        let atomic_read: f64 = rows[1][4].parse().unwrap();
        assert!(atomic_read > 0.0, "atomic reads must pay broadcast latency");

        // The atomic check compares reads that observed writes, not a
        // column of `None`s.
        let (outputs, _) = super::atomic_run(true);
        assert!(outputs.iter().flatten().any(Option::is_some), "no atomic read saw a write");
        assert!(super::outputs_agree(&outputs), "atomic outputs diverged: {outputs:?}");
    }
}
