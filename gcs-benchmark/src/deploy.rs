//! What a workload needs from a running cluster, and the three things
//! that provide it: the stock `LoopbackCluster` and `ShardCluster`
//! (every end-to-end number comes from these), and the benchmark-owned
//! [`OwnedCluster`] assembled from public parts for the traced pass.

use crate::span::{spanned_handle, spanned_tick, SpanLog, SpanTransport};
use gcs_model::{ProcId, Time, Value, View};
use gcs_net::{
    Clock, ClusterConfig, GroupEndpoint, Incoming, LoopbackCluster, NodeCore, TcpTransport,
    Transport, TransportConfig,
};
use gcs_obs::{Obs, Snapshot};
use gcs_shard::{ShardCluster, ShardClusterConfig};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The member sets of a deployment's groups (group id = index). A
/// single ring is one group of all `n` nodes.
#[derive(Clone, Debug)]
pub struct Topology {
    pub n: u32,
    pub groups: Vec<BTreeSet<ProcId>>,
    pub delta_ms: Time,
}

impl Topology {
    pub fn ring(n: u32, delta_ms: Time) -> Topology {
        Topology { n, groups: vec![ProcId::range(n)], delta_ms }
    }

    /// `ShardClusterConfig::ring`'s layout: group `i` is
    /// `{i, i+1, …, i+k−1} mod n`.
    pub fn shard_ring(n: u32, g: u32, k: u32, delta_ms: Time) -> Topology {
        Topology { n, groups: ShardClusterConfig::ring(n, g, k, delta_ms).groups, delta_ms }
    }

    fn shard_config(&self) -> ShardClusterConfig {
        ShardClusterConfig {
            n: self.n,
            groups: self.groups.clone(),
            delta_ms: self.delta_ms,
            transport: TransportConfig::default(),
        }
    }

    pub fn is_sharded(&self) -> bool {
        self.groups.len() > 1
    }
}

/// A running cluster, as a workload sees it.
pub trait Deployment {
    fn addr(&self, p: ProcId) -> SocketAddr;
    /// Cuts every link to and from `p`, at both endpoints.
    fn isolate(&self, p: ProcId);
    fn rejoin(&self, p: ProcId);
    /// Blocks until every member of `group` has delivered `count`
    /// values or the deadline passes.
    fn await_deliveries(&self, group: u32, count: usize, deadline: Duration) -> bool;
    /// The delivered sequence of each member of `group`.
    fn delivered(&self, group: u32) -> Vec<Vec<Value>>;
    /// Views installed after the initial one, over all nodes and groups.
    fn view_changes(&self) -> u64;
    /// The transport's `net_*` counters.
    fn net_counters(&self) -> Snapshot;
    /// Stops every thread of the cluster and frees it.
    fn shutdown(self: Box<Self>);
}

fn values(seq: Vec<(ProcId, Value)>) -> Vec<Value> {
    seq.into_iter().map(|(_, a)| a).collect()
}

impl Deployment for LoopbackCluster {
    fn addr(&self, p: ProcId) -> SocketAddr {
        LoopbackCluster::addr(self, p)
    }
    fn isolate(&self, p: ProcId) {
        LoopbackCluster::isolate(self, p);
    }
    fn rejoin(&self, p: ProcId) {
        LoopbackCluster::rejoin(self, p);
    }
    fn await_deliveries(&self, _group: u32, count: usize, deadline: Duration) -> bool {
        // `LoopbackCluster::await_deliveries` clones every node's whole
        // history per poll; `delivered_count` does not.
        let start = Instant::now();
        loop {
            if (0..self.n()).all(|i| self.node(ProcId(i)).delivered_count() >= count) {
                return true;
            }
            if start.elapsed() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    fn delivered(&self, _group: u32) -> Vec<Vec<Value>> {
        LoopbackCluster::delivered(self).into_iter().map(values).collect()
    }
    fn view_changes(&self) -> u64 {
        self.views().iter().map(|v| v.len().saturating_sub(1) as u64).sum()
    }
    fn net_counters(&self) -> Snapshot {
        self.obs().registry.snapshot()
    }
    fn shutdown(self: Box<Self>) {
        self.stop();
    }
}

impl Deployment for ShardCluster {
    fn addr(&self, p: ProcId) -> SocketAddr {
        ShardCluster::addr(self, p)
    }
    fn isolate(&self, p: ProcId) {
        for q in (0..self.config().n).map(ProcId).filter(|q| *q != p) {
            self.sever_pair(p, q);
        }
    }
    fn rejoin(&self, p: ProcId) {
        for q in (0..self.config().n).map(ProcId).filter(|q| *q != p) {
            self.heal_pair(p, q);
        }
    }
    fn await_deliveries(&self, group: u32, count: usize, deadline: Duration) -> bool {
        self.await_group_deliveries(group, count, deadline)
    }
    fn delivered(&self, group: u32) -> Vec<Vec<Value>> {
        ShardCluster::delivered(self, group).into_values().map(values).collect()
    }
    fn view_changes(&self) -> u64 {
        (0..self.config().groups.len() as u32)
            .flat_map(|g| self.views(g).into_values())
            .map(|v| v.len().saturating_sub(1) as u64)
            .sum()
    }
    fn net_counters(&self) -> Snapshot {
        self.net_obs().registry.snapshot()
    }
    fn shutdown(self: Box<Self>) {
        self.stop();
    }
}

/// Boots the stock cluster for `topology`.
pub fn start_stock(topology: &Topology) -> io::Result<Box<dyn Deployment>> {
    if topology.is_sharded() {
        Ok(Box::new(ShardCluster::start(topology.shard_config(), 1 << 16)?))
    } else {
        let config = ClusterConfig {
            n: topology.n,
            delta_ms: topology.delta_ms,
            transport: TransportConfig::default(),
        };
        Ok(Box::new(LoopbackCluster::start(config)?))
    }
}

/// What one traced node loop counted besides its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopStats {
    /// Blocking receives that returned an event.
    pub wakeups: u64,
    /// Events handled (the first of each wake-up and those drained
    /// behind it).
    pub events: u64,
    /// Wall time from boot to stop, ns.
    pub lifetime_ns: u64,
}

/// What one core thread of an [`OwnedCluster`] recorded.
pub struct CoreRecord {
    pub node: ProcId,
    pub group: u32,
    pub log: SpanLog,
    pub stats: LoopStats,
}

struct CoreThread {
    node: ProcId,
    group: u32,
    events_tx: Sender<Incoming>,
    handle: Option<JoinHandle<(SpanLog, LoopStats)>>,
    delivered: Arc<Mutex<Vec<(ProcId, Value)>>>,
    views: Arc<Mutex<Vec<View>>>,
}

/// The benchmark-owned deployment: per node one stock `TcpTransport`,
/// per hosted group one stock `NodeCore` on its own thread, driven by a
/// loop equivalent to `gcs_net::run_core_loop` with spans around
/// `recv`, `handle` and `tick`, and talking to the transport through a
/// [`SpanTransport`].
pub struct OwnedCluster {
    topology: Topology,
    addrs: BTreeMap<ProcId, SocketAddr>,
    transports: Vec<Arc<TcpTransport>>,
    cores: Vec<CoreThread>,
    obs: Obs,
    _parked: Vec<Receiver<Incoming>>,
}

/// The stock `run_core_loop`, with a span around each blocking receive,
/// each `handle` and each `tick`.
fn traced_core_loop<T: Transport>(
    mut core: NodeCore,
    events_rx: Receiver<Incoming>,
    endpoint: T,
    clock: &Clock,
) -> (SpanLog, LoopStats) {
    let started = Instant::now();
    let log = Rc::new(RefCell::new(SpanLog::new(core.id().0)));
    let transport = SpanTransport::new(endpoint, log.clone());
    let mut stats = LoopStats::default();
    core.boot(&transport);
    'run: loop {
        let timeout = core
            .next_timer_due()
            .map(|due| Duration::from_millis(due.saturating_sub(clock.now_ms())))
            .unwrap_or(Duration::from_millis(20));
        log.borrow_mut().open("nodecore.recv", 0);
        let received = events_rx.recv_timeout(timeout);
        log.borrow_mut().close();
        match received {
            Ok(ev) => {
                stats.wakeups += 1;
                stats.events += 1;
                if !spanned_handle(&mut core, ev, &transport, &log) {
                    break 'run;
                }
                for _ in 0..128 {
                    let Ok(ev) = events_rx.try_recv() else { break };
                    stats.events += 1;
                    if !spanned_handle(&mut core, ev, &transport, &log) {
                        break 'run;
                    }
                }
                if core.next_timer_due().is_some_and(|due| due <= clock.now_ms()) {
                    spanned_tick(&mut core, &transport, &log);
                }
            }
            Err(RecvTimeoutError::Timeout) => spanned_tick(&mut core, &transport, &log),
            Err(RecvTimeoutError::Disconnected) => break 'run,
        }
    }
    stats.lifetime_ns = started.elapsed().as_nanos() as u64;
    drop(transport);
    let log = Rc::try_unwrap(log).map(RefCell::into_inner).unwrap_or_default();
    (log, stats)
}

impl OwnedCluster {
    pub fn start(topology: &Topology) -> io::Result<OwnedCluster> {
        let mut listeners = Vec::new();
        let mut addrs = BTreeMap::new();
        for i in 0..topology.n {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(ProcId(i), l.local_addr()?);
            listeners.push(l);
        }
        let clock = Clock::new();
        let obs = Obs::new();
        let shard = topology.shard_config();
        let mut transports = Vec::new();
        let mut cores = Vec::new();
        let mut parked = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = ProcId(i as u32);
            let (tx0, rx0) = mpsc::channel::<Incoming>();
            let transport = TcpTransport::start_with_obs(
                id,
                listener,
                &addrs,
                TransportConfig::default(),
                tx0.clone(),
                obs.clone(),
            )?;
            let mut rx0 = Some(rx0);
            for (g, members) in topology.groups.iter().enumerate() {
                if !members.contains(&id) {
                    continue;
                }
                let g = g as u32;
                // A single ring is the untagged protocol with the
                // standard timers; a sharded deployment scales each
                // group's timers to its member count, as `ShardCluster`
                // does.
                let (proto, label) = if topology.is_sharded() {
                    (shard.proto(g as usize), Some(g))
                } else {
                    (gcs_vsimpl::ProtoConfig::standard(topology.n, topology.delta_ms), None)
                };
                let core = NodeCore::new_in_group(id, proto, clock.clone(), &obs, label);
                let (events_tx, events_rx) = match (g, rx0.take()) {
                    (0, Some(rx)) => (tx0.clone(), rx),
                    (_, keep) => {
                        rx0 = keep;
                        let (tx, rx) = mpsc::channel::<Incoming>();
                        transport.register_group(g, tx.clone());
                        (tx, rx)
                    }
                };
                let (delivered, views) = (core.delivered_handle(), core.views_handle());
                let endpoint = GroupEndpoint::new(g, transport.clone());
                let clock = clock.clone();
                let handle = std::thread::Builder::new()
                    .name("bench-core".into())
                    .spawn(move || traced_core_loop(core, events_rx, endpoint, &clock))?;
                cores.push(CoreThread {
                    node: id,
                    group: g,
                    events_tx,
                    handle: Some(handle),
                    delivered,
                    views,
                });
            }
            // A node that hosts no group 0 must keep that route's
            // receiver alive, or misrouted frames would look like a
            // reader disconnect.
            parked.extend(rx0);
            transports.push(transport);
        }
        Ok(OwnedCluster {
            topology: topology.clone(),
            addrs,
            transports,
            cores,
            obs,
            _parked: parked,
        })
    }

    fn group_cores(&self, group: u32) -> impl Iterator<Item = &CoreThread> {
        self.cores.iter().filter(move |c| c.group == group)
    }

    /// Stops every core loop and returns what each recorded. The
    /// transports' own threads are left to the process exit.
    pub fn stop_cores(&mut self) -> Vec<CoreRecord> {
        for c in &self.cores {
            let _ = c.events_tx.send(Incoming::Stop);
        }
        self.cores
            .iter_mut()
            .filter_map(|c| {
                let (log, stats) = c.handle.take()?.join().ok()?;
                Some(CoreRecord { node: c.node, group: c.group, log, stats })
            })
            .collect()
    }
}

impl Deployment for OwnedCluster {
    fn addr(&self, p: ProcId) -> SocketAddr {
        self.addrs[&p]
    }
    fn isolate(&self, p: ProcId) {
        for q in (0..self.topology.n).map(ProcId).filter(|q| *q != p) {
            self.transports[p.index()].sever(q);
            self.transports[q.index()].sever(p);
        }
    }
    fn rejoin(&self, p: ProcId) {
        for q in (0..self.topology.n).map(ProcId).filter(|q| *q != p) {
            self.transports[p.index()].heal(q);
            self.transports[q.index()].heal(p);
        }
    }
    fn await_deliveries(&self, group: u32, count: usize, deadline: Duration) -> bool {
        let start = Instant::now();
        loop {
            let done =
                self.group_cores(group).all(|c| c.delivered.lock().map_or(0, |d| d.len()) >= count);
            if done || start.elapsed() >= deadline {
                return done;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    fn delivered(&self, group: u32) -> Vec<Vec<Value>> {
        self.group_cores(group)
            .map(|c| c.delivered.lock().map_or_else(|_| Vec::new(), |d| values(d.clone())))
            .collect()
    }
    fn view_changes(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.views.lock().map_or(0, |v| v.len().saturating_sub(1)) as u64)
            .sum()
    }
    fn net_counters(&self) -> Snapshot {
        self.obs.registry.snapshot()
    }
    fn shutdown(mut self: Box<Self>) {
        self.stop_cores();
        for t in &self.transports {
            t.stop();
        }
    }
}
