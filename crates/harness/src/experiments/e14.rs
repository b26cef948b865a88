//! E14 (extension) — what the partitionable stack costs: token ring +
//! membership vs a fixed-sequencer baseline.
//!
//! The paper's service buys partitionable membership, per-view total
//! order, and safe indications. This experiment quantifies the price in
//! a *stable* network against the classic fixed sequencer (two hops,
//! `n + 1` packets per value, no fault tolerance whatsoever): latency
//! ~π vs ~2δ and the packet amortization of the token. The flip side is
//! the last column — under a sequencer crash the baseline delivers
//! nothing, while the paper's stack reforms and continues.

use crate::{row, Table};
use crate::{stack_stats, SequencerNode, Stack, StackConfig, TraceStats};
use gcs_ioa::par_seeds;
use gcs_model::failure::FailureScript;
use gcs_model::{ProcId, Time, Value};
use gcs_netsim::{Engine, NetConfig};
use std::collections::BTreeSet;

struct Cost {
    mean_latency: f64,
    packets_per_value: f64,
    survives_leader_crash: bool,
}

fn token_ring_cost(n: u32, msgs: usize, crash_leader: bool, seed: u64) -> Cost {
    let mut stack = Stack::new(StackConfig::standard(n, 5, seed));
    let pi = stack.config().proto.pi;
    let t0 = 4 * pi;
    if crash_leader {
        let ambient = ProcId::range(n);
        let survivors: BTreeSet<ProcId> =
            ambient.iter().copied().filter(|p| *p != ProcId(0)).collect();
        let mut script = FailureScript::new();
        script.partition(t0 + 5, &[survivors, [ProcId(0)].into()], &ambient);
        stack.load_failures(&script);
    }
    for i in 0..msgs {
        // Submit away from the (possibly crashed) leader.
        stack.schedule_bcast(t0 + 10 + i as Time * 10, ProcId(1 + (i as u32 % (n - 1))));
    }
    // Keep the horizon tight in the stable case so the packet count
    // reflects the active period, not hours of idle probing; the crash
    // case needs the long horizon for reformation.
    let horizon = if crash_leader { t0 + 400 * pi } else { t0 + msgs as Time * 10 + 12 * pi };
    stack.run_until(horizon);
    let stats = stack_stats(&stack);
    let routed = stack.net_stats().routed;
    let survivors = if crash_leader { n - 1 } else { n };
    let complete = (0..n)
        .filter(|&i| ProcId(i) != ProcId(0) || !crash_leader)
        .all(|i| stack.delivered(ProcId(i)).len() == msgs);
    Cost {
        mean_latency: TraceStats::mean(&stats.first_delivery_latencies),
        packets_per_value: routed as f64 / msgs as f64,
        survives_leader_crash: complete && survivors > 0,
    }
}

fn sequencer_cost(n: u32, msgs: usize, crash_leader: bool, seed: u64) -> Cost {
    let procs = ProcId::range(n);
    let nodes = procs.iter().map(|&p| SequencerNode::new(p, procs.clone()));
    let mut engine =
        Engine::new(nodes, NetConfig { delta_min: 1, delta: 5, ..NetConfig::default() }, seed);
    if crash_leader {
        let mut script = FailureScript::new();
        script.crash(5, ProcId(0));
        engine.load_failures(&script);
    }
    for i in 0..msgs {
        engine.schedule_input(
            10 + i as Time * 10,
            ProcId(1 + (i as u32 % (n - 1))),
            Value::from_u64(i as u64 + 1),
        );
    }
    engine.run_until(10_000);
    let stats = TraceStats::from_trace(engine.trace(), n);
    let complete = (1..n).all(|i| engine.process(ProcId(i)).delivered().len() == msgs);
    Cost {
        mean_latency: TraceStats::mean(&stats.first_delivery_latencies),
        packets_per_value: engine.stats().routed as f64 / msgs as f64,
        survives_leader_crash: complete,
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E14 — cost of partitionability: token-ring stack vs fixed-sequencer baseline \
         (stable network, δ = 5)",
        &[
            "system",
            "n",
            "values",
            "mean first-delivery latency",
            "packets per value",
            "survives leader crash",
        ],
    );
    let msgs = if quick { 10 } else { 40 };
    let sizes: &[u32] = if quick { &[3] } else { &[3, 5, 9] };
    // Each group size yields two rows (stack, baseline); compute both in
    // one parallel task per size and append the pairs in size order.
    let row_pairs = par_seeds(&sizes.iter().map(|&n| n as u64).collect::<Vec<_>>(), |n64| {
        let n = n64 as u32;
        let tr = token_ring_cost(n, msgs, false, 140 + n as u64);
        let tr_crash = token_ring_cost(n, 6, true, 150 + n as u64);
        let ring = row![
            "token ring (this paper)",
            n,
            msgs,
            format!("{:.1}", tr.mean_latency),
            format!("{:.1}", tr.packets_per_value),
            if tr_crash.survives_leader_crash { "✓ (reforms)" } else { "✗" }
        ]
        .to_vec();
        let sq = sequencer_cost(n, msgs, false, 160 + n as u64);
        let sq_crash = sequencer_cost(n, 6, true, 170 + n as u64);
        let seq = row![
            "fixed sequencer",
            n,
            msgs,
            format!("{:.1}", sq.mean_latency),
            format!("{:.1}", sq.packets_per_value),
            if sq_crash.survives_leader_crash { "✓" } else { "✗ (stalls)" }
        ]
        .to_vec();
        [ring, seq]
    });
    for [ring, seq] in row_pairs {
        t.row(&ring);
        t.row(&seq);
    }
    t.note(
        "Expected shape: the sequencer wins raw stable-network latency (~2δ \
         vs a token rotation) and loses everything on a sequencer crash; the \
         token ring pays ~π of latency for partitionable membership, safe \
         indications, and automatic reformation. Packet counts include \
         membership probes for the stack (its steady-state overhead).",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tradeoff_shape_holds() {
        let tables = super::run(true);
        let rows = tables[0].rows();
        let tr_lat: f64 = rows[0][3].parse().unwrap();
        let sq_lat: f64 = rows[1][3].parse().unwrap();
        assert!(sq_lat < tr_lat, "sequencer must win stable latency ({sq_lat} vs {tr_lat})");
        assert!(rows[0][5].starts_with('✓'), "stack must survive leader crash");
        assert!(rows[1][5].starts_with('✗'), "baseline must stall on sequencer crash");
    }
}
