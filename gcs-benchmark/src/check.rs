//! The correctness pass of the traced run: each workload again at a
//! size the trace checkers can take, with the complete recorded trace
//! put through the `TO` trace checker, the `VS` cause checker and the
//! b/d bound monitors, the KV streams through the per-key
//! linearizability checker, and — for the in-memory workload — three
//! fixed-seed faulty `gcs_sim` scenarios that must come out violation
//! free with the same digest twice.

use crate::gen::{GenConfig, Generator, Pacing, Payload, ValueStream};
use crate::mem::MemWorld;
use crate::workloads::{drive_inmem, Body, Conn, Fault, Values, Workload, DELTA_MS};
use gcs_core::cause::check_trace;
use gcs_core::to_trace::check_to_trace;
use gcs_ioa::TimedTrace;
use gcs_model::ProcId;
use gcs_net::runtime::merge_recordings;
use gcs_net::{ClusterConfig, LoopbackCluster, TransportConfig};
use gcs_netsim::TraceEvent;
use gcs_obs::{BoundParams, Obs, StabilizationMonitor, TokenRoundMonitor};
use gcs_shard::{ShardCluster, ShardClusterConfig, ShardMap};
use gcs_sim::{Scenario, SimConfig};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use gcs_vsimpl::ImplEvent;
use std::collections::BTreeSet;
use std::io;
use std::time::{Duration, Instant};

/// Operations per connection in the checker pass.
const CHECK_OPS: u64 = 20_000;
const TRACE_CAPACITY: usize = 1 << 22;

type Trace = TimedTrace<TraceEvent<ImplEvent>>;

fn check_recorded(
    trace: &Trace,
    members: &BTreeSet<ProcId>,
    what: &str,
    problems: &mut Vec<String>,
) {
    let to = check_to_trace(&to_obs(trace).untimed());
    if let Some(v) = to.violations.first() {
        problems.push(format!("{what}: TO checker: {v}"));
    }
    let cause = check_trace(&vs_actions(trace), members);
    if let Some(v) = cause.violations.first() {
        problems.push(format!("{what}: VS cause checker: {v}"));
    }
}

fn check_monitors(obs: &Obs, n: u32, what: &str, problems: &mut Vec<String>) {
    if obs.trace.evicted() > 0 {
        problems.push(format!(
            "{what}: the trace ring evicted {} events; the monitors are blind",
            obs.trace.evicted()
        ));
    }
    let events = obs.trace.snapshot();
    let params = BoundParams::standard(n, DELTA_MS);
    let mut stab = StabilizationMonitor::new(params);
    let mut round = TokenRoundMonitor::new(params);
    stab.feed_all(&events);
    round.feed_all(&events);
    if let Some(v) = stab.finish().violations.first() {
        problems.push(format!("{what}: stabilization monitor (b): {v}"));
    }
    if let Some(v) = round.finish(obs.trace.now_ms()).violations.first() {
        problems.push(format!("{what}: token-round monitor (d): {v}"));
    }
}

/// Runs the generator until `ops` came back or `limit` passed.
fn drive(g: &Generator, ops: u64, limit: Duration) {
    let deadline = Instant::now() + limit;
    while g.delivered() < ops && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn check_ring(
    conn: &Conn,
    fault: Option<Fault>,
    seed: u64,
    scale: f64,
    problems: &mut Vec<String>,
) -> io::Result<()> {
    let ops = ((CHECK_OPS as f64 * scale) as u64).max(200);
    let obs = Obs::with_trace_capacity(TRACE_CAPACITY);
    let config = ClusterConfig { n: 5, delta_ms: DELTA_MS, transport: TransportConfig::default() };
    let cluster = LoopbackCluster::start_with_obs(config, obs.clone())?;
    let payload = match conn.values {
        Values::Padded1k => Payload::Padded { len: 1024 },
        _ => Payload::Id,
    };
    let gc = |node: u32, pacing, payload, stream| GenConfig {
        addr: cluster.addr(ProcId(node)),
        group: 0,
        pacing,
        payload,
        seed,
        stream,
    };
    let mut sent = 0usize;
    if let Some(f) = fault {
        let g = Generator::start(gc(f.isolate, Pacing::Closed { window: 512 }, Payload::Id, 100))?;
        drive(&g, ops / 4, Duration::from_secs(10));
        sent += g.finish(Duration::from_secs(10)).sent_ns.len();
    }
    let g = Generator::start(gc(conn.node, conn.pacing, payload, 0))?;
    match fault {
        None => drive(&g, ops, Duration::from_secs_f64((3.0 * scale).max(0.5))),
        Some(f) => {
            // One partition and merge under load, long enough for both
            // view changes to complete.
            std::thread::sleep(Duration::from_millis(700));
            cluster.isolate(ProcId(f.isolate));
            std::thread::sleep(Duration::from_millis(1500));
            cluster.rejoin(ProcId(f.isolate));
            std::thread::sleep(Duration::from_millis(1800));
        }
    }
    let rec = g.finish(Duration::from_secs(10));
    sent += rec.sent_ns.len();
    if rec.done_ns.contains(&0) {
        problems.push("checker pass: operations never came back to the client".into());
    }
    if !cluster.await_deliveries(sent, Duration::from_secs(10)) {
        problems.push(format!("checker pass: not every node delivered all {sent} operations"));
    }
    check_monitors(&obs, 5, "ring", problems);
    let trace = cluster.stop();
    check_recorded(&trace, &ProcId::range(5), "ring", problems);
    Ok(())
}

fn check_shard(
    conns: &[Conn],
    groups: &[BTreeSet<ProcId>],
    seed: u64,
    scale: f64,
    problems: &mut Vec<String>,
) -> io::Result<()> {
    let ops = ((CHECK_OPS as f64 * scale / 2.0) as u64).max(200);
    let config = ShardClusterConfig {
        n: 5,
        groups: groups.to_vec(),
        delta_ms: DELTA_MS,
        transport: TransportConfig::default(),
    };
    let cluster = ShardCluster::start(config, TRACE_CAPACITY)?;
    let map = ShardMap::new(groups.to_vec());
    let mut gens = Vec::new();
    for (i, c) in conns.iter().enumerate() {
        gens.push(Generator::start(GenConfig {
            addr: cluster.addr(ProcId(c.node)),
            group: c.group,
            pacing: c.pacing,
            payload: Payload::Kv { keys: 64, map: map.clone(), group: c.group },
            seed,
            stream: i as u8,
        })?);
    }
    for g in &gens {
        drive(g, ops, Duration::from_secs(10));
    }
    for (c, g) in conns.iter().zip(gens) {
        let sent = g.finish(Duration::from_secs(10)).sent_ns.len();
        if !cluster.await_group_deliveries(c.group, sent, Duration::from_secs(10)) {
            problems.push(format!(
                "checker pass: group {} did not deliver all {sent} operations",
                c.group
            ));
        }
    }
    for (g, members) in groups.iter().enumerate() {
        let what = format!("group {g}");
        check_monitors(cluster.group_obs(g as u32), members.len() as u32, &what, problems);
        let streams: Vec<_> = cluster
            .delivered(g as u32)
            .into_values()
            .map(|s| s.into_iter().map(|(_, a)| a).collect::<Vec<_>>())
            .collect();
        if let Err(e) = gcs_apps::check_per_key_linearizable(&streams) {
            problems.push(format!("{what}: per-key linearizability: {e}"));
        }
    }
    let (traces, _) = cluster.stop();
    for (g, trace) in &traces {
        check_recorded(trace, &groups[*g as usize], &format!("group {g}"), problems);
    }
    Ok(())
}

fn check_inmem(window: usize, seed: u64, scale: f64, problems: &mut Vec<String>) {
    let ops = ((CHECK_OPS as f64 * scale) as u64).max(200);
    let mut world = MemWorld::new(5, DELTA_MS, ProcId(0), false, false);
    let mut values = ValueStream::new(seed, 0, Payload::Id);
    drive_inmem(&mut world, ProcId(0), window, &mut values, &mut |sent| sent >= ops);
    let trace = merge_recordings(&world.recorded());
    check_recorded(&trace, &ProcId::range(5), "in-memory world", problems);

    // The same NodeCore under the deterministic simulator, with faults:
    // no violations, and the same digest from two invocations.
    for sim_seed in [11u64, 42, 1997] {
        let sc = Scenario::generate(&SimConfig { seed: sim_seed, ..SimConfig::default() });
        let (a, b) = (gcs_sim::run(&sc), gcs_sim::run(&sc));
        if let Some(v) = a.violations.first() {
            problems.push(format!("gcs_sim seed {sim_seed}: {v}"));
        }
        if a.digest != b.digest {
            problems.push(format!(
                "gcs_sim seed {sim_seed}: digests differ across two runs ({:#x} vs {:#x})",
                a.digest, b.digest
            ));
        }
        if a.faults_applied == 0 {
            problems.push(format!("gcs_sim seed {sim_seed}: the scenario injected no fault"));
        }
    }
}

/// Runs the checker pass for one workload; returns what went wrong.
pub fn run(w: &Workload, seed: u64, scale: f64) -> io::Result<Vec<String>> {
    let mut problems = Vec::new();
    match &w.body {
        Body::InMem { window } => check_inmem(*window, seed, scale, &mut problems),
        Body::Tcp { topology, conns, fault } if !topology.is_sharded() => {
            check_ring(&conns[0], *fault, seed, scale, &mut problems)?;
        }
        Body::Tcp { topology, conns, .. } => {
            check_shard(conns, &topology.groups, seed, scale, &mut problems)?
        }
    }
    Ok(problems)
}
