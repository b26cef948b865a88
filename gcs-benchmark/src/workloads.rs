//! The seven workloads and the one procedure that runs any of them:
//! set up (several times, timed), warm up, measure for the run's
//! seconds (a closed loop in several stretches with idle time between
//! them), drain, verify every node's delivery order, and report.

use crate::affinity;
use crate::deploy::{start_stock, CoreRecord, Deployment, OwnedCluster, Topology};
use crate::gen::{
    blocks, now_ns, Block, GenConfig, GenRecord, Generator, Pacing, Payload, ValueStream,
    WindowStats,
};
use crate::mem::MemWorld;
use crate::procstat::{self, ProcSample};
use crate::span::NodeEvent;
use crate::stats::{longest_gap, percentile, percentile_of};
use gcs_model::{ProcId, Value};
use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

/// Protocol δ of every workload: π = 200 ms, μ = 400 ms at n = 5.
pub const DELTA_MS: u64 = 20;
/// How long generators run before the timed window opens.
const WARMUP: Duration = Duration::from_millis(300);
/// How long a run waits for outstanding operations after the window.
const DRAIN: Duration = Duration::from_secs(10);
/// Slots of timed set-ups per untraced run.
pub const SETUPS: usize = 5;
/// `setup_s` is this percentile of every set-up timed in the slots: the
/// least disturbed tenth, as for the closed-loop numbers and for the
/// same reason. (Of five set-ups of 200 ms each that is the shortest;
/// they differ by a thousandth.)
const SETUP_PERCENTILE: f64 = 10.0;
/// A slot repeats its set-up until the set-ups have taken this long…
const SETUP_SLOT: Duration = Duration::from_millis(100);
/// …or has run this often: a set-up of milliseconds is CPU time and
/// needs the samples, one of 200 ms is a timer and does not.
const SETUPS_PER_SLOT: usize = 8;
/// A closed-loop window is measured in this many stretches…
const STRETCHES: usize = 4;
/// …with the system left idle this long between them.
const STRETCH_GAP: Duration = Duration::from_secs(4);
/// Operations in one block of a closed-loop stretch: the largest window.
const BLOCK_OPS: usize = 4096;
/// The start of a stretch that is not cut into blocks: reading `/proc`
/// for the usage sample taken there holds the one CPU for milliseconds,
/// and the backlog that builds up meanwhile is delivered in a rush.
const SETTLE_NS: u64 = 50_000_000;
/// Keys of the KV workload.
const KV_KEYS: u64 = 64;

#[derive(Clone, Copy, Debug)]
pub enum Values {
    Id,
    Padded1k,
    Kv,
}

/// One client connection of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Conn {
    pub node: u32,
    pub group: u32,
    pub pacing: Pacing,
    pub values: Values,
}

/// The fault schedule of `partition_heal`.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    /// Operations delivered before the generators start, so the state
    /// exchange has a fixed, sizeable history to carry.
    pub history_ops: u64,
    pub isolate: u32,
    /// The isolate is due this share into the window…
    pub isolate_after: f64,
    /// …and the rejoin this share of the window after the isolate.
    pub partition: f64,
}

pub enum Body {
    Tcp { topology: Topology, conns: Vec<Conn>, fault: Option<Fault> },
    InMem { window: usize },
}

pub struct Workload {
    pub body: Body,
}

impl Workload {
    /// Whether the workload's own script breaks the view.
    pub fn has_fault(&self) -> bool {
        matches!(self.body, Body::Tcp { fault: Some(_), .. })
    }

    /// Replaces the offered rate of every open-loop connection.
    pub fn set_open_rate(&mut self, rate: u64) {
        if let Body::Tcp { conns, .. } = &mut self.body {
            for c in conns.iter_mut().filter(|c| matches!(c.pacing, Pacing::Open { .. })) {
                c.pacing = Pacing::Open { rate };
            }
        }
    }
}

pub fn workload(name: &str) -> Option<Workload> {
    let ring = || Topology::ring(5, DELTA_MS);
    let conn = |node, pacing, values| Conn { node, group: 0, pacing, values };
    let tcp = |conns, fault| Body::Tcp { topology: ring(), conns, fault };
    let body = match name {
        "ring5_sat" => tcp(vec![conn(0, Pacing::Closed { window: 4096 }, Values::Id)], None),
        "ring5_leader_open" => tcp(vec![conn(0, Pacing::Open { rate: 40_000 }, Values::Id)], None),
        "ring5_follower_open" => tcp(vec![conn(2, Pacing::Open { rate: 1_000 }, Values::Id)], None),
        "ring5_payload1k" => {
            tcp(vec![conn(0, Pacing::Closed { window: 256 }, Values::Padded1k)], None)
        }
        "partition_heal" => tcp(
            vec![conn(2, Pacing::Open { rate: 1_000 }, Values::Id)],
            Some(Fault {
                history_ops: 2_000,
                isolate: 0,
                isolate_after: 0.25,
                partition: 1.0 / 3.0,
            }),
        ),
        "shard2_sat" => Body::Tcp {
            topology: Topology::shard_ring(5, 2, 3, DELTA_MS),
            // One connection per group, to that group's leader.
            conns: (0..2)
                .map(|g| Conn {
                    node: g,
                    group: g,
                    pacing: Pacing::Closed { window: 128 },
                    values: Values::Kv,
                })
                .collect(),
            fault: None,
        },
        "core_inmem" => Body::InMem { window: 1024 },
        // Not a benchmark workload: the single-node baseline the traced
        // run reports as `client.n1_throughput_ops_s`.
        "ring1_sat" => Body::Tcp {
            topology: Topology::ring(1, DELTA_MS),
            conns: vec![conn(0, Pacing::Closed { window: 1024 }, Values::Id)],
            fault: None,
        },
        _ => return None,
    };
    Some(Workload { body })
}

/// How one run is to be made.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub setups: usize,
}

/// The split view change of a traced `partition_heal`, cut into phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub detect_ms: f64,
    pub form_ms: f64,
    pub resume_ms: f64,
    pub outage_ms: f64,
}

/// What one run measured.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Every metric this run could compute, end-to-end and per-layer.
    pub values: BTreeMap<&'static str, f64>,
    pub cores: Vec<CoreRecord>,
    pub phases: Option<Phases>,
    pub problems: Vec<String>,
}

impl Measured {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }
    fn problem(&mut self, what: String) {
        eprintln!("gcs-benchmark: {what}");
        self.problems.push(what);
        self.correct = false;
    }
}

fn payload_of(values: Values, topology: &Topology, group: u32) -> Payload {
    match values {
        Values::Id => Payload::Id,
        Values::Padded1k => Payload::Padded { len: 1024 },
        Values::Kv => Payload::Kv {
            keys: KV_KEYS,
            map: gcs_shard::ShardMap::new(topology.groups.clone()),
            group,
        },
    }
}

/// Every stream of values a run submitted, for the exactly-once check.
struct Submitted {
    group: u32,
    stream: ValueStream,
    sent: usize,
}

impl Submitted {
    /// What a finished generator submitted, as a fresh replica of its
    /// value stream.
    fn of(group: u32, cfg: GenConfig, rec: &GenRecord) -> Submitted {
        Submitted {
            group,
            stream: ValueStream::new(cfg.seed, cfg.stream, cfg.payload),
            sent: rec.sent_ns.len(),
        }
    }
}

enum Cluster {
    Stock(Box<dyn Deployment>),
    Owned(OwnedCluster),
}

impl Cluster {
    fn dep(&self) -> &dyn Deployment {
        match self {
            Cluster::Stock(d) => &**d,
            Cluster::Owned(o) => o,
        }
    }
}

fn gen_config(
    dep: &dyn Deployment,
    topology: &Topology,
    c: &Conn,
    pacing: Pacing,
    seed: u64,
    stream: u8,
) -> GenConfig {
    GenConfig {
        addr: dep.addr(ProcId(c.node)),
        group: c.group,
        pacing,
        payload: payload_of(c.values, topology, c.group),
        seed,
        stream,
    }
}

/// Moves the run to the CPU that is fastest just now.
fn pin() {
    static WARNED: std::sync::Once = std::sync::Once::new();
    if !affinity::move_to_fastest_cpu() {
        WARNED.call_once(|| {
            eprintln!("gcs-benchmark: cannot set CPU affinity; the run is not confined to one CPU");
        });
    }
}

/// Boots a cluster and drives one operation through every connection's
/// node: the time from bind to a delivered operation on each is one
/// set-up sample.
fn set_up(
    topology: &Topology,
    conns: &[Conn],
    seed: u64,
    owned: bool,
    submitted: &mut Vec<Submitted>,
) -> io::Result<(Cluster, f64)> {
    let started = Instant::now();
    let cluster = if owned {
        Cluster::Owned(OwnedCluster::start(topology)?)
    } else {
        Cluster::Stock(start_stock(topology)?)
    };
    let mut probes = Vec::new();
    for (i, c) in conns.iter().enumerate() {
        let cfg = gen_config(
            cluster.dep(),
            topology,
            c,
            Pacing::Closed { window: 1 },
            seed,
            200 + i as u8,
        );
        probes.push((c.group, cfg.clone(), Generator::start(cfg)?));
    }
    let deadline = Instant::now() + DRAIN;
    while probes.iter().any(|(_, _, g)| g.delivered() == 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
    }
    let took = started.elapsed().as_secs_f64();
    for (group, cfg, g) in probes {
        let rec = g.finish(Duration::from_millis(500));
        submitted.push(Submitted::of(group, cfg, &rec));
    }
    Ok((cluster, took))
}

/// Waits for the generator to see its next delivery burst, so a fault
/// lands at a fixed phase of the token launch period instead of a
/// random one. Gives up after two periods.
fn await_next_burst(g: &Generator) {
    let seen = g.delivered();
    let deadline = Instant::now() + Duration::from_millis(4 * 5 * DELTA_MS);
    while g.delivered() == seen && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn sleep_until_ns(t: u64) {
    let now = now_ns();
    if t > now {
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

/// Checks one group's delivered sequences: every member the same
/// sequence, containing every submitted operation exactly once and
/// nothing else. Returns how many operations failed that.
fn verify_group(g: u32, seqs: &[Vec<Value>], submitted: &mut [Submitted], m: &mut Measured) -> u64 {
    let mut streams: Vec<&mut Submitted> = submitted.iter_mut().filter(|s| s.group == g).collect();
    let expect: usize = streams.iter().map(|s| s.sent).sum();
    let Some(reference) = seqs.iter().max_by_key(|s| s.len()) else {
        m.problem(format!("group {g} has no members"));
        return expect as u64;
    };
    let mut failed = 0u64;
    for (i, s) in seqs.iter().enumerate().filter(|(_, s)| *s != reference) {
        let agree = s.iter().zip(reference).take_while(|(a, b)| a == b).count();
        m.problem(format!(
            "group {g}: member {i} delivered {} values, the longest {}; they agree on the first {agree}",
            s.len(),
            reference.len()
        ));
        failed += (reference.len().max(expect) - agree) as u64;
    }
    let mut seen: Vec<Vec<u8>> = streams.iter().map(|s| vec![0u8; s.sent]).collect();
    for s in &mut streams {
        s.stream.advance_to(s.sent as u32);
    }
    let mut strangers = 0u64;
    for v in reference {
        match streams.iter().enumerate().find_map(|(i, s)| s.stream.index_of(v).map(|idx| (i, idx)))
        {
            Some((i, idx)) => seen[i][idx as usize] = seen[i][idx as usize].saturating_add(1),
            None => strangers += 1,
        }
    }
    let missing = seen.iter().flatten().filter(|c| **c == 0).count() as u64;
    let repeated = seen.iter().flatten().filter(|c| **c > 1).count() as u64;
    if missing + repeated + strangers > 0 {
        m.problem(format!(
            "group {g}: {missing} operations missing, {repeated} delivered more than once, {strangers} values nobody submitted"
        ));
        failed += missing + repeated;
    }
    if streams.iter().any(|s| matches!(s.stream.payload(), Payload::Kv { .. })) {
        if let Err(e) = gcs_apps::check_per_key_linearizable(seqs) {
            m.problem(format!("group {g}: per-key linearizability: {e}"));
        }
    }
    failed
}

/// Waits for every group to catch up, then verifies each.
fn verify(
    dep: &dyn Deployment,
    submitted: &mut [Submitted],
    groups: usize,
    m: &mut Measured,
) -> u64 {
    let mut failed = 0;
    for g in 0..groups as u32 {
        let expect: usize = submitted.iter().filter(|s| s.group == g).map(|s| s.sent).sum();
        if !dep.await_deliveries(g, expect, DRAIN) {
            m.problem(format!(
                "group {g}: not every member delivered {expect} operations within the drain"
            ));
        }
        failed += verify_group(g, &dep.delivered(g), submitted, m);
    }
    failed
}

fn counter(snapshot: &gcs_obs::Snapshot, name: &str) -> f64 {
    snapshot.counter_total(name) as f64
}

/// One uninterrupted part of the timed window and what the generators
/// recorded over it.
struct Stretch {
    from: u64,
    to: u64,
    records: Vec<GenRecord>,
}

/// The lengths of the stretches a window of `seconds` is measured in.
/// A window under two seconds, or one that may not be interrupted, is
/// one stretch.
fn stretch_lengths(seconds: f64, split: bool) -> Vec<f64> {
    let n = if split { (seconds as usize).clamp(1, STRETCHES) } else { 1 };
    vec![seconds / n as f64; n]
}

/// What the process used over the stretches of the timed window.
#[derive(Default)]
struct Usage {
    cpu_us: u64,
    vol_ctx_switches: u64,
    rss_bytes: u64,
    threads: u64,
    cpu_ns_by_thread_name: BTreeMap<String, u64>,
}

impl Usage {
    fn add(&mut self, p0: &ProcSample, p1: &ProcSample) {
        self.cpu_us += p1.cpu_us.saturating_sub(p0.cpu_us);
        self.vol_ctx_switches += p1.vol_ctx_switches.saturating_sub(p0.vol_ctx_switches);
        self.rss_bytes += p1.rss_bytes.saturating_sub(p0.rss_bytes);
        self.threads = p1.threads;
        for (name, ns) in &p1.cpu_ns_by_thread_name {
            let before = p0.cpu_ns_by_thread_name.get(name).copied().unwrap_or(0);
            *self.cpu_ns_by_thread_name.entry(name.clone()).or_default() +=
                ns.saturating_sub(before);
        }
    }
}

/// The `proc.*` metrics over the timed window.
fn proc_metrics(m: &mut Measured, used: &Usage, ops: f64) {
    let ops = ops.max(1.0);
    m.set("proc.cpu_us_per_op", used.cpu_us as f64 / ops);
    m.set("proc.vol_ctx_switches_per_op", used.vol_ctx_switches as f64 / ops);
    let rss = used.rss_bytes as f64 / ops;
    m.set("proc.rss_bytes_per_op", rss);
    m.set("rss_bytes_per_op", rss);
    m.set("transport.threads", used.threads as f64);
    let family = |name: &str| {
        used.cpu_ns_by_thread_name.get(name).copied().unwrap_or(0) as f64 / 1000.0 / ops
    };
    // Threads the benchmark names; every other thread is the stack's
    // own: accept loops, per-peer writers, per-connection readers and,
    // in the stock cluster, the core loops too.
    let core = family("bench-core");
    let client = family("bench-gen");
    let total: f64 = used.cpu_ns_by_thread_name.keys().map(|k| family(k)).sum();
    m.set("proc.core_cpu_us_per_op", core);
    m.set("proc.client_cpu_us_per_op", client);
    m.set("proc.io_cpu_us_per_op", (total - core - client - family("bench-watchdog")).max(0.0));
}

/// The metrics cut from the generators' records.
fn client_metrics(m: &mut Measured, stretches: &[Stretch], closed_loop: bool) -> WindowStats {
    let mut w = WindowStats::default();
    for s in stretches {
        w.absorb(WindowStats::cut(&s.records, s.from, s.to));
    }
    let timed_ns: u64 = stretches.iter().map(|s| s.to - s.from).sum();
    let whole_ops_s = w.delivered_in_window as f64 * 1e9 / timed_ns.max(1) as f64;
    let whole_mean_us = w.latency_us.iter().sum::<u64>() as f64 / w.latency_us.len().max(1) as f64;
    m.set("client.window_throughput_ops_s", whole_ops_s);
    let cut: Vec<Block> = stretches
        .iter()
        .flat_map(|s| blocks(&s.records, s.from + SETTLE_NS, s.to, BLOCK_OPS))
        .collect();
    if closed_loop && cut.len() >= 10 {
        // A closed loop is paced by the system, so every block of
        // deliveries is another measurement of one steady state. The
        // host only ever slows a block down: it runs at one of two
        // speeds a quarter apart and changes between them every few
        // seconds. So the window is spread over stretches of idle time,
        // to see both speeds, and the run reports its least disturbed
        // tenth: the 90th percentile of block throughput, the 10th of
        // block latency.
        let of = |f: fn(&Block) -> f64| cut.iter().map(f).collect::<Vec<f64>>();
        m.set("throughput_ops_s", percentile_of(&of(|b| b.throughput_ops_s), 90.0));
        m.set("latency_p50_us", percentile_of(&of(|b| b.latency_p50_us), 10.0));
        m.set("latency_mean_us", percentile_of(&of(|b| b.latency_mean_us), 10.0));
    } else {
        // An open loop's schedule is fixed: the window is one
        // measurement. (So is a closed loop's too short to cut.)
        m.set("throughput_ops_s", whole_ops_s);
        m.set("latency_p50_us", w.latency_percentile_us(50.0) as f64);
        m.set("latency_mean_us", whole_mean_us);
    }
    m.set("client.latency_p95_us", w.latency_percentile_us(95.0) as f64);
    m.set("client.latency_p99_us", w.latency_percentile_us(99.0) as f64);
    m.set("client.latency_max_us", w.latency_percentile_us(100.0) as f64);
    m.set(
        "client.deliver_batch_ops_mean",
        w.deliveries_total as f64 / w.deliver_frames.max(1) as f64,
    );
    m.set("client.gen_lateness_us_p99", percentile(&w.lateness_us, 99.0) as f64);
    let conns = stretches.iter().map(|s| s.records.len()).max().unwrap_or(0);
    let per_conn: Vec<u64> = (0..conns)
        .map(|i| {
            let one =
                |s: &Stretch| WindowStats::cut(&s.records[i..=i], s.from, s.to).delivered_in_window;
            stretches.iter().map(one).sum()
        })
        .collect();
    let (lo, hi) = per_conn.iter().fold((u64::MAX, 0), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
    m.set("shard.group_imbalance", if lo > 0 { hi as f64 / lo as f64 } else { 0.0 });
    if w.duplicates > 0 {
        m.problem(format!("{} deliveries reached the client twice", w.duplicates));
    }
    for r in stretches.iter().flat_map(|s| &s.records) {
        if let Some(e) = &r.io_error {
            m.problem(format!("generator I/O failed: {e}"));
        }
    }
    w
}

/// The metrics folded from the traced cores' span logs.
fn span_metrics(m: &mut Measured, cores: &[CoreRecord], clients: &[(u32, u32)], leader: u32) {
    // Operations: what the cores the clients are attached to pushed.
    let at_client = |c: &&CoreRecord| clients.contains(&(c.node.0, c.group));
    let ops: f64 = cores
        .iter()
        .filter(at_client)
        .map(|c| c.log.deliveries_pushed as f64)
        .sum::<f64>()
        .max(1.0);
    let self_ns = |name: &str| cores.iter().map(|c| c.log.total(name).self_ns as f64).sum::<f64>();
    let total_ns =
        |name: &str| cores.iter().map(|c| c.log.total(name).total_ns as f64).sum::<f64>();
    m.set("nodecore.handle_wire_ns_per_op", self_ns("nodecore.handle_wire") / ops);
    m.set("nodecore.handle_submit_ns_per_op", self_ns("nodecore.handle_submit") / ops);
    m.set("nodecore.tick_ns_per_op", self_ns("nodecore.tick") / ops);
    m.set("transport.push_deliveries_ns_per_op", total_ns("transport.push_deliveries") / ops);
    let calls_ns: f64 = cores
        .iter()
        .flat_map(|c| c.log.totals.iter())
        .filter(|(name, _)| name.starts_with("transport."))
        .map(|(_, t)| t.total_ns as f64)
        .sum();
    m.set("budget.transport_calls_us_per_op", calls_ns / 1000.0 / ops);
    let core_self_ns = self_ns("nodecore.handle_wire")
        + self_ns("nodecore.handle_submit")
        + self_ns("nodecore.tick");
    m.set("budget.nodecore_self_us_per_op", core_self_ns / 1000.0 / ops);

    let mut send_ns: Vec<u64> =
        cores.iter().flat_map(|c| c.log.send_call_ns.iter().map(|x| u64::from(*x))).collect();
    send_ns.sort_unstable();
    m.set("transport.send_call_ns_p50", percentile(&send_ns, 50.0) as f64);

    if let Some(lead) = cores.iter().find(|c| c.node.0 == leader) {
        let busy = ["nodecore.handle_wire", "nodecore.handle_submit", "nodecore.tick"]
            .iter()
            .map(|n| lead.log.total(n).total_ns as f64)
            .sum::<f64>();
        m.set("nodecore.busy_share", busy / lead.stats.lifetime_ns.max(1) as f64);
        m.set(
            "nodecore.events_per_wakeup",
            if lead.stats.wakeups > 0 {
                lead.stats.events as f64 / lead.stats.wakeups as f64
            } else {
                0.0
            },
        );
        let mut gaps: Vec<u64> =
            lead.log.token_sent_at.windows(2).map(|w| w[1].saturating_sub(w[0]) / 1000).collect();
        gaps.sort_unstable();
        m.set("vsimpl.token_rotation_us_p50", percentile(&gaps, 50.0) as f64);
    }
    let mut waits: Vec<u64> = cores
        .iter()
        .filter(at_client)
        .flat_map(|c| c.log.token_wait_us.iter().map(|x| u64::from(*x)))
        .collect();
    waits.sort_unstable();
    m.set("vsimpl.token_wait_ms_p50", percentile(&waits, 50.0) as f64 / 1000.0);

    let logs: Vec<&crate::span::SpanLog> = cores.iter().map(|c| &c.log).collect();
    let views = logs
        .iter()
        .flat_map(|l| l.events.iter())
        .filter_map(|(_, e)| match e {
            NodeEvent::PushedView(id) => Some(*id),
            _ => None,
        })
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let membership = logs
        .iter()
        .flat_map(|l| l.events.iter())
        .filter(|(_, e)| {
            matches!(e, NodeEvent::SentCall | NodeEvent::SentAccept | NodeEvent::SentJoin)
        })
        .count();
    m.set(
        "vsimpl.membership_msgs_per_view",
        if views > 0 { membership as f64 / views as f64 } else { 0.0 },
    );
}

/// Cuts the split view change into detect / form / resume from the
/// traced cores' event logs.
fn split_phases(
    cores: &[CoreRecord],
    isolated: u32,
    client_node: u32,
    t_iso: u64,
    outage_ns: u64,
) -> Option<Phases> {
    let survivors: Vec<&CoreRecord> = cores.iter().filter(|c| c.node.0 != isolated).collect();
    let first_after = |c: &CoreRecord, t: u64, pick: fn(&NodeEvent) -> bool| {
        c.log.events.iter().find(|(at, e)| *at >= t && pick(e)).map(|(at, _)| *at)
    };
    let t_call = survivors
        .iter()
        .filter_map(|c| first_after(c, t_iso, |e| matches!(e, NodeEvent::SentCall)))
        .min()?;
    let t_view = survivors
        .iter()
        .map(|c| first_after(c, t_call, |e| matches!(e, NodeEvent::PushedView(_))))
        .collect::<Option<Vec<u64>>>()?
        .into_iter()
        .max()?;
    let t_resume = cores
        .iter()
        .filter(|c| c.node.0 == client_node)
        .filter_map(|c| c.log.delivery_pushes.iter().find(|at| **at >= t_view).copied())
        .min()?;
    let ms = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e6;
    Some(Phases {
        detect_ms: ms(t_iso, t_call),
        form_ms: ms(t_call, t_view),
        resume_ms: ms(t_view, t_resume),
        outage_ms: outage_ns as f64 / 1e6,
    })
}

fn run_tcp(
    topology: &Topology,
    conns: &[Conn],
    fault: Option<Fault>,
    cfg: RunConfig,
) -> io::Result<Measured> {
    let mut m = Measured { correct: true, ..Measured::default() };
    let mut submitted: Vec<Submitted> = Vec::new();

    // Set-up, in several slots. The first is one set-up, of the cluster
    // that is then measured; in the others clusters are set up, timed
    // and stopped again. Each idle gap between the stretches of the
    // window holds one slot (so that the set-ups too meet the host at
    // more than one of its speeds), the rest come here.
    let closed_loop = conns.iter().all(|c| matches!(c.pacing, Pacing::Closed { .. }));
    let lengths = stretch_lengths(cfg.seconds, closed_loop && fault.is_none() && !cfg.traced);
    pin();
    let (mut cluster, took) = set_up(topology, conns, cfg.seed, cfg.traced, &mut submitted)?;
    let mut setup_s = vec![took];
    let setup_slot = |setup_s: &mut Vec<f64>| -> io::Result<()> {
        pin();
        let mut spent = 0.0;
        for _ in 0..SETUPS_PER_SLOT {
            let (c, took) = set_up(topology, conns, cfg.seed, false, &mut Vec::new())?;
            setup_s.push(took);
            if let Cluster::Stock(d) = c {
                d.shutdown();
            }
            spent += took;
            if spent >= SETUP_SLOT.as_secs_f64() {
                break;
            }
        }
        Ok(())
    };
    let mut slots = 1;
    while slots + (lengths.len() - 1) < cfg.setups {
        setup_slot(&mut setup_s)?;
        slots += 1;
    }

    if let Some(f) = fault {
        let c = Conn {
            node: f.isolate,
            group: 0,
            pacing: Pacing::Closed { window: 512 },
            values: Values::Id,
        };
        let gc = gen_config(cluster.dep(), topology, &c, c.pacing, cfg.seed, 100);
        let g = Generator::start(gc.clone())?;
        let deadline = Instant::now() + DRAIN;
        while g.delivered() < f.history_ops && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let rec = g.finish(DRAIN);
        submitted.push(Submitted::of(0, gc, &rec));
    }

    // The timed window, in one or more stretches. Each stretch has its
    // own generators: a closed-loop connection cannot pause.
    let mut stretches: Vec<Stretch> = Vec::new();
    let mut used = Usage::default();
    const NET: [&str; 3] =
        ["net_frames_sent_total", "net_frames_dropped_total", "net_reconnects_total"];
    let mut net = [0.0f64; 3];
    let mut faults_at = None;
    for (s, seconds) in lengths.into_iter().enumerate() {
        if s > 0 {
            let idle_until = Instant::now() + STRETCH_GAP;
            if slots < cfg.setups {
                setup_slot(&mut setup_s)?;
                slots += 1;
            }
            std::thread::sleep(idle_until.saturating_duration_since(Instant::now()));
        }
        pin();
        let mut gens = Vec::new();
        for (i, c) in conns.iter().enumerate() {
            let stream = (s * conns.len() + i) as u8;
            let gc = gen_config(cluster.dep(), topology, c, c.pacing, cfg.seed, stream);
            gens.push((c.group, gc.clone(), Generator::start(gc)?));
        }
        let deadline = Instant::now() + DRAIN;
        while gens.iter().any(|(_, _, g)| g.delivered() == 0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(WARMUP.min(Duration::from_secs_f64(seconds)));

        let p0 = procstat::sample();
        let net0 = cluster.dep().net_counters();
        let from = now_ns();
        let to_target = from + (seconds * 1e9) as u64;
        if let Some(f) = fault {
            sleep_until_ns(from + (seconds * f.isolate_after * 1e9) as u64);
            await_next_burst(&gens[0].2);
            // The seed moves the instant inside the idle part of the
            // period; the burst it follows fixes the phase.
            std::thread::sleep(Duration::from_millis(50 + (cfg.seed % 5) * 10));
            let t_iso = now_ns();
            cluster.dep().isolate(ProcId(f.isolate));
            sleep_until_ns(t_iso + (seconds * f.partition * 1e9) as u64);
            let t_heal = now_ns();
            cluster.dep().rejoin(ProcId(f.isolate));
            faults_at = Some((t_iso, t_heal));
        }
        while now_ns() < to_target {
            sleep_until_ns(to_target.min(now_ns() + 100_000_000));
            if fault.is_none() && cluster.dep().view_changes() > 0 {
                // A host stall longer than the token timeout. What
                // follows is a state exchange over the whole history,
                // in gigabytes: no point in waiting for it.
                return Err(io::Error::other(
                    "a view broke on a steady workload; the run is invalid",
                ));
            }
        }
        let to = now_ns();
        used.add(&p0, &procstat::sample());
        let net1 = cluster.dep().net_counters();
        for (sum, name) in net.iter_mut().zip(NET) {
            *sum += counter(&net1, name) - counter(&net0, name);
        }

        let mut records = Vec::new();
        for (group, gc, g) in gens {
            let rec = g.finish(DRAIN);
            submitted.push(Submitted::of(group, gc, &rec));
            records.push(rec);
        }
        stretches.push(Stretch { from, to, records });
    }
    let views_in_window = cluster.dep().view_changes();
    let to = stretches.last().map_or(0, |s| s.to);
    m.set("setup_s", percentile_of(&setup_s, SETUP_PERCENTILE));

    let w = client_metrics(&mut m, &stretches, closed_loop);
    proc_metrics(&mut m, &used, w.delivered_in_window as f64);
    let ops = (w.delivered_in_window as f64).max(1.0);
    m.set("transport.frames_sent_per_op", net[0] / ops);
    m.set("transport.frames_dropped", net[1]);
    m.set(
        "transport.queue_full_drops",
        cluster
            .dep()
            .net_counters()
            .counter_value("net_frames_dropped_total", &[("reason", "queue_full")]) as f64,
    );
    m.set("transport.reconnects", net[2]);
    m.set("vsimpl.view_changes", views_in_window as f64);
    if fault.is_none() && views_in_window > 0 {
        // The outputs may still be correct (verified below); the
        // numbers are not those of a steady ring.
        eprintln!("gcs-benchmark: {views_in_window} view changes on a steady workload: this repeat is invalid");
    }
    let (mut split_ns, mut merge_ns) = (0, 0);
    if let Some((t_iso, t_heal)) = faults_at {
        split_ns = w.arrivals_ns.iter().find(|t| **t > t_iso).map_or(to - t_iso, |t| t - t_iso);
        merge_ns = longest_gap(&w.arrivals_ns, t_heal, to);
    }
    m.set("client.split_outage_ms", split_ns as f64 / 1e6);
    m.set("client.merge_outage_ms", merge_ns as f64 / 1e6);

    let failed = verify(cluster.dep(), &mut submitted, topology.groups.len(), &mut m);
    m.attempted = submitted.iter().map(|s| s.sent as u64).sum();
    m.failed = failed.min(m.attempted);
    if procstat::aborted() {
        m.problem("the RSS watchdog aborted the run".into());
    }

    if let Cluster::Owned(owned) = &mut cluster {
        let cores = owned.stop_cores();
        let clients: Vec<(u32, u32)> = conns.iter().map(|c| (c.node, c.group)).collect();
        span_metrics(&mut m, &cores, &clients, 0);
        if let (Some(f), Some((t_iso, _))) = (fault, faults_at) {
            m.phases = split_phases(&cores, f.isolate, conns[0].node, t_iso, split_ns);
        }
        m.cores = cores;
    }
    let ph = m.phases.unwrap_or_default();
    m.set("vsimpl.detect_ms", ph.detect_ms);
    m.set("vsimpl.form_ms", ph.form_ms);
    m.set("vsimpl.resume_ms", ph.resume_ms);
    Ok(m)
}

/// Drives the in-memory world closed-loop from `client` for
/// `warmup + seconds` of wall time; returns the record in the same shape
/// the TCP generators produce.
pub fn drive_inmem(
    world: &mut MemWorld,
    client: ProcId,
    window: usize,
    values: &mut ValueStream,
    stop: &mut dyn FnMut(u64) -> bool,
) -> GenRecord {
    let mut sent_ns: Vec<u64> = Vec::new();
    let mut done_ns: Vec<u64> = Vec::new();
    let mut outstanding = 0usize;
    let mut duplicates = 0u64;
    let mut deliver_frames = 0u64;
    loop {
        let stopped = stop(sent_ns.len() as u64) || procstat::aborted();
        if stopped && outstanding == 0 {
            break;
        }
        if !stopped && outstanding < window {
            let count = window - outstanding;
            let batch: Vec<Value> = (0..count).map(|_| values.next_value()).collect();
            let at = now_ns();
            sent_ns.extend(std::iter::repeat_n(at, count));
            outstanding += count;
            world.submit(client, batch);
        }
        world.drain();
        let got = world.take_deliveries();
        if got.is_empty() {
            // Nothing moved: the protocol is waiting on a timer.
            if !world.fire_next_timer() {
                break;
            }
            continue;
        }
        deliver_frames += 1;
        let at = now_ns();
        done_ns.resize(sent_ns.len(), 0);
        for v in &got {
            let Some(idx) = values.index_of(v) else { continue };
            if done_ns[idx as usize] == 0 {
                done_ns[idx as usize] = at;
                outstanding -= 1;
            } else {
                duplicates += 1;
            }
        }
    }
    done_ns.resize(sent_ns.len(), 0);
    GenRecord { sent_ns, wrote_ns: Vec::new(), done_ns, duplicates, deliver_frames, io_error: None }
}

/// Lets every node catch up with the client's node, then checks that
/// all delivered the same sequence.
fn settle_inmem(world: &mut MemWorld, expect: usize) {
    for _ in 0..64 {
        world.drain();
        if world.delivered().iter().all(|d| d.len() >= expect) {
            return;
        }
        if !world.fire_next_timer() {
            return;
        }
    }
}

fn run_inmem(window: usize, cfg: RunConfig) -> Measured {
    let mut m = Measured { correct: true, ..Measured::default() };
    let client = ProcId(0);

    // Set-up: build and boot the world and get a first full window
    // through it. As over TCP, the first world is the one measured and
    // the idle gaps of the window each hold one of the other set-ups.
    let lengths = stretch_lengths(cfg.seconds, !cfg.traced);
    let set_up = |traced: bool| {
        let started = Instant::now();
        let mut w = MemWorld::new(5, DELTA_MS, client, traced, traced);
        let mut probe = ValueStream::new(cfg.seed, 200, Payload::Id);
        let mut first = true;
        let rec =
            drive_inmem(&mut w, client, window, &mut probe, &mut |_| !std::mem::take(&mut first));
        (w, rec.sent_ns.len(), started.elapsed().as_secs_f64())
    };
    pin();
    let (mut world, probe_sent, took) = set_up(cfg.traced);
    let mut setup_s = vec![took];
    let setup_slot = |setup_s: &mut Vec<f64>| {
        pin();
        let mut spent = 0.0;
        for _ in 0..SETUPS_PER_SLOT {
            let took = set_up(false).2;
            setup_s.push(took);
            spent += took;
            if spent >= SETUP_SLOT.as_secs_f64() {
                break;
            }
        }
    };
    let mut slots = 1;
    while slots + (lengths.len() - 1) < cfg.setups {
        setup_slot(&mut setup_s);
        slots += 1;
    }

    // Single-threaded and already warm from the set-up: a tenth of a
    // second before each stretch is enough, and keeps the history the
    // world holds in memory short.
    let warmup = Duration::from_millis(100);
    let started = now_ns();
    let counts0 = world.counts();
    let mut stretches: Vec<Stretch> = Vec::new();
    let mut streams: Vec<(u8, usize)> = Vec::new();
    let mut used = Usage::default();
    for (s, seconds) in lengths.into_iter().enumerate() {
        if s > 0 {
            let idle_until = Instant::now() + STRETCH_GAP;
            if slots < cfg.setups {
                setup_slot(&mut setup_s);
                slots += 1;
            }
            std::thread::sleep(idle_until.saturating_duration_since(Instant::now()));
        }
        pin();
        let from = now_ns() + warmup.min(Duration::from_secs_f64(seconds)).as_nanos() as u64;
        let to = from + (seconds * 1e9) as u64;
        let mut values = ValueStream::new(cfg.seed, s as u8, Payload::Id);
        let mut p0 = None;
        let rec = drive_inmem(&mut world, client, window, &mut values, &mut |_| {
            let now = now_ns();
            if now >= from && p0.is_none() {
                p0 = Some(procstat::sample());
            }
            now >= to
        });
        used.add(&p0.unwrap_or_default(), &procstat::sample());
        streams.push((s as u8, rec.sent_ns.len()));
        stretches.push(Stretch { from, to, records: vec![rec] });
    }
    m.set("setup_s", percentile_of(&setup_s, SETUP_PERCENTILE));
    let lifetime_ns = now_ns() - started;
    let sent: usize = streams.iter().map(|(_, n)| n).sum();
    settle_inmem(&mut world, probe_sent + sent);

    let w = client_metrics(&mut m, &stretches, true);
    proc_metrics(&mut m, &used, w.delivered_in_window as f64);
    let counts = world.counts();
    m.set(
        "transport.frames_sent_per_op",
        (counts.wires - counts0.wires) as f64 / sent.max(1) as f64,
    );
    m.set("transport.frames_dropped", counts.dropped as f64);
    m.set("transport.queue_full_drops", 0.0);
    m.set("transport.reconnects", 0.0);
    m.set("vsimpl.view_changes", world.views_pushed() as f64);
    if world.views_pushed() > 0 {
        eprintln!(
            "gcs-benchmark: {} view changes on a steady workload: this repeat is invalid",
            world.views_pushed()
        );
    }
    for name in [
        "client.split_outage_ms",
        "client.merge_outage_ms",
        "vsimpl.detect_ms",
        "vsimpl.form_ms",
        "vsimpl.resume_ms",
    ] {
        m.set(name, 0.0);
    }

    let mut submitted: Vec<Submitted> = std::iter::once((200, probe_sent))
        .chain(streams)
        .map(|(stream, sent)| Submitted {
            group: 0,
            stream: ValueStream::new(cfg.seed, stream, Payload::Id),
            sent,
        })
        .collect();
    m.attempted = (probe_sent + sent) as u64;
    m.failed = verify_group(0, &world.delivered(), &mut submitted, &mut m).min(m.attempted);

    if cfg.traced {
        let cores: Vec<CoreRecord> = world
            .take_logs()
            .into_iter()
            .map(|log| CoreRecord {
                node: ProcId(log.node),
                group: 0,
                log,
                stats: crate::deploy::LoopStats { wakeups: 0, events: 0, lifetime_ns },
            })
            .collect();
        span_metrics(&mut m, &cores, &[(client.0, 0)], 0);
        m.cores = cores;
    }
    m
}

/// Runs one workload once.
pub fn run(w: &Workload, cfg: RunConfig) -> io::Result<Measured> {
    match &w.body {
        Body::Tcp { topology, conns, fault } => run_tcp(topology, conns, *fault, cfg),
        Body::InMem { window } => {
            // On a thread of the name the traced TCP cores run under, so
            // that CPU is attributed the same way in both worlds.
            let window = *window;
            std::thread::Builder::new()
                .name("bench-core".into())
                .spawn(move || run_inmem(window, cfg))?
                .join()
                .map_err(|_| io::Error::other("the in-memory world panicked"))
        }
    }
}
