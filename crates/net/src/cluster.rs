//! The loopback cluster harness: boots `n` nodes on ephemeral localhost
//! ports, each hosting every group whose member set contains it, drives
//! client traffic, severs and re-establishes TCP links to emulate
//! partitions and merges, crashes and restarts whole nodes
//! (stable-storage recovery), and hands the merged recorded trace of
//! each group — across every incarnation — to the existing VS/TO safety
//! checkers.
//!
//! A single ring is the one-group case: group 0 over all `n` nodes,
//! recording into the transports' sink. [`LoopbackCluster::start`] boots
//! exactly that, and the methods without a group argument speak for it.
//! A sharded deployment ([`LoopbackCluster::start_groups`], which
//! `gcs_shard::ShardCluster` wraps) gives each group its own [`Obs`]:
//! the b/d monitors assume they are watching *one* group's event stream
//! (one ring, one membership). Fault injection then also writes the
//! `Fault` trace event into the sink of every group the fault can
//! disturb — a severed (p, q) pair disturbs exactly the groups
//! containing both endpoints, a crash of p every group containing p —
//! which is what lets the stabilization monitor excuse the disturbed
//! interval per group, exactly as Theorem 8.1's premise does.

use crate::runtime::{merge_recordings, Clock, GroupExit, GroupHandle, HostedGroup, NetNode};
use crate::transport::{ShutdownReport, TransportConfig};
use gcs_ioa::{TimedTrace, TraceEvent};
use gcs_model::{ProcId, Time, Value, View};
use gcs_obs::{EventKind, FaultKind, Obs};
use gcs_vsimpl::{ImplEvent, ProtoConfig, StableState, TimedVsToTo};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Polls `pred` every 10 ms until it holds or `deadline` passes; returns
/// whether it held.
pub fn wait_for(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// The merged recorded trace of one group.
pub type ClusterTrace = TimedTrace<TraceEvent<ImplEvent>>;

/// Single-ring cluster parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: u32,
    /// The protocol δ in milliseconds. Over loopback the physical delay is
    /// microseconds, so δ here sets the protocol's *patience* (timer
    /// periods π = 2nδ, μ = 4nδ), not an injected latency.
    pub delta_ms: Time,
    /// Transport knobs.
    pub transport: TransportConfig,
}

impl ClusterConfig {
    /// A patient configuration for CI machines: δ = 20 ms, so a 5-node
    /// ring has π = 200 ms and a token timeout well above scheduling
    /// jitter.
    pub fn patient(n: u32) -> Self {
        ClusterConfig { n, delta_ms: 20, transport: TransportConfig::default() }
    }
}

/// One group of a cluster (its id is its index in the list given to
/// [`LoopbackCluster::start_groups`]).
pub struct GroupSpec {
    /// The group's protocol configuration; `proto.procs` is its member
    /// set.
    pub proto: ProtoConfig,
    /// The group's own sink, or `None` to share the transports' (see
    /// [`HostedGroup::obs`]).
    pub obs: Option<Obs>,
}

/// One node slot: the live node (if not crashed), the listener clone kept
/// for restarts (the OS socket stays open across a crash, so the port
/// survives and no TIME_WAIT rebind race exists), and per hosted group
/// everything the stopped incarnations left behind, concatenated.
struct Slot {
    node: Option<NetNode>,
    listener: TcpListener,
    incarnation: u64,
    past: BTreeMap<u32, GroupExit>,
}

impl Slot {
    fn absorb(&mut self, exits: BTreeMap<u32, GroupExit>) {
        for (g, exit) in exits {
            let past = self.past.entry(g).or_default();
            past.recorded.extend(exit.recorded);
            past.delivered.extend(exit.delivered);
            past.views.extend(exit.views);
            past.stable = exit.stable;
        }
    }

    /// What group `g` has at this location across every incarnation, in
    /// order: the `VStoTO` client layer survives a crash on stable
    /// storage, so the concatenation is the client-visible sequence.
    fn history<T: Clone>(
        &self,
        g: u32,
        past: impl Fn(&GroupExit) -> &Vec<T>,
        live: impl Fn(&GroupHandle) -> Vec<T>,
    ) -> Vec<T> {
        let mut all = self.past.get(&g).map_or_else(Vec::new, |e| past(e).clone());
        all.extend(self.node.as_ref().and_then(|n| n.group(g)).map(live).unwrap_or_default());
        all
    }

    fn delivered_count(&self, g: u32) -> usize {
        self.past.get(&g).map_or(0, |e| e.delivered.len())
            + self.node.as_ref().and_then(|n| n.group(g)).map_or(0, GroupHandle::delivered_count)
    }
}

/// A running loopback cluster.
pub struct LoopbackCluster {
    slots: Vec<Slot>,
    addrs: BTreeMap<ProcId, SocketAddr>,
    clock: Arc<Clock>,
    obs: Obs,
    groups: Vec<GroupSpec>,
    transport: TransportConfig,
}

/// The groups of `specs` that node `p` hosts, each recovering from what
/// `stable` yields for it.
fn hosted(
    specs: &[GroupSpec],
    p: ProcId,
    mut stable: impl FnMut(u32) -> Option<StableState<TimedVsToTo>>,
) -> BTreeMap<u32, HostedGroup> {
    (0u32..)
        .zip(specs)
        .filter(|(_, spec)| spec.proto.procs.contains(&p))
        .map(|(g, spec)| {
            let group =
                HostedGroup { proto: spec.proto.clone(), obs: spec.obs.clone(), stable: stable(g) };
            (g, group)
        })
        .collect()
}

impl LoopbackCluster {
    /// A single ring of `config.n` nodes; all nodes share one fresh
    /// [`Obs`] sink.
    pub fn start(config: ClusterConfig) -> io::Result<LoopbackCluster> {
        LoopbackCluster::start_with_obs(config, Obs::new())
    }

    /// Like [`LoopbackCluster::start`] with a caller-provided [`Obs`] —
    /// e.g. one with a trace capacity large enough that a test can rely
    /// on the complete event record (`obs.trace.evicted() == 0`).
    pub fn start_with_obs(config: ClusterConfig, obs: Obs) -> io::Result<LoopbackCluster> {
        let ring = GroupSpec { proto: ProtoConfig::standard(config.n, config.delta_ms), obs: None };
        LoopbackCluster::start_groups(config.n, config.transport, obs, vec![ring])
    }

    /// Binds `n` ephemeral listeners, then boots every node with the full
    /// address map and the groups it belongs to. The transports record
    /// into `obs`.
    pub fn start_groups(
        n: u32,
        transport: TransportConfig,
        obs: Obs,
        groups: Vec<GroupSpec>,
    ) -> io::Result<LoopbackCluster> {
        let mut listeners = Vec::new();
        let mut addrs = BTreeMap::new();
        for i in 0..n {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(ProcId(i), l.local_addr()?);
            listeners.push(l);
        }
        let clock = Clock::new();
        let mut slots = Vec::new();
        for (i, listener) in (0u32..).zip(listeners) {
            let keep = listener.try_clone()?;
            let node = NetNode::start(
                ProcId(i),
                listener,
                &addrs,
                transport.clone(),
                clock.clone(),
                obs.clone(),
                hosted(&groups, ProcId(i), |_| None),
            )?;
            slots.push(Slot {
                node: Some(node),
                listener: keep,
                incarnation: 0,
                past: BTreeMap::new(),
            });
        }
        Ok(LoopbackCluster { slots, addrs, clock, obs, groups, transport })
    }

    /// The transports' observability sink — for a single ring, the one
    /// registry and trace stream of the whole cluster.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The sink group `g` records into.
    pub fn group_obs(&self, g: u32) -> &Obs {
        self.groups.get(g as usize).and_then(|s| s.obs.as_ref()).unwrap_or(&self.obs)
    }

    /// Number of nodes.
    pub fn n(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The bound address of node `p` (for external TCP clients).
    pub fn addr(&self, p: ProcId) -> SocketAddr {
        // gcs-lint: allow(panic_path, reason = "test-harness accessor; every ProcId a test holds comes from this cluster's own node set")
        self.addrs[&p]
    }

    fn live(&self, p: ProcId) -> Option<&NetNode> {
        self.slots.get(p.index())?.node.as_ref()
    }

    /// The node handle for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is currently crashed.
    pub fn node(&self, p: ProcId) -> &NetNode {
        // gcs-lint: allow(panic_path, reason = "documented `# Panics` harness contract: asking for a crashed node is a test bug that must fail loudly, not limp")
        self.live(p).expect("node is crashed")
    }

    /// The members of group `g`, with their slots.
    fn members(&self, g: u32) -> impl Iterator<Item = (ProcId, &Slot)> + '_ {
        let procs = self.groups.get(g as usize).map(|s| &s.proto.procs);
        procs.into_iter().flatten().filter_map(|p| Some((*p, self.slots.get(p.index())?)))
    }

    /// Submits a value at node `p` of the single ring through its local
    /// event path (panics like [`LoopbackCluster::node`]).
    pub fn submit(&self, p: ProcId, a: Value) {
        if let Some(ring) = self.node(p).group(0) {
            ring.submit(a);
        }
    }

    /// What each member of group `g` has delivered so far, in its local
    /// order, including deliveries made by crashed prior incarnations.
    pub fn delivered_in(&self, g: u32) -> BTreeMap<ProcId, Vec<(ProcId, Value)>> {
        self.members(g)
            .map(|(p, s)| (p, s.history(g, |e| &e.delivered, GroupHandle::delivered)))
            .collect()
    }

    /// [`LoopbackCluster::delivered_in`] for the single ring, by node.
    pub fn delivered(&self) -> Vec<Vec<(ProcId, Value)>> {
        self.delivered_in(0).into_values().collect()
    }

    /// The views each member of group `g` has installed so far (across
    /// incarnations).
    pub fn views_in(&self, g: u32) -> BTreeMap<ProcId, Vec<View>> {
        self.members(g).map(|(p, s)| (p, s.history(g, |e| &e.views, GroupHandle::views))).collect()
    }

    /// [`LoopbackCluster::views_in`] for the single ring, by node.
    pub fn views(&self) -> Vec<Vec<View>> {
        self.views_in(0).into_values().collect()
    }

    /// Blocks until every *live* member of group `g` has delivered at
    /// least `count` values or the deadline passes; returns whether the
    /// goal was reached.
    pub fn await_deliveries_in(&self, g: u32, count: usize, deadline: Duration) -> bool {
        wait_for(deadline, || {
            self.members(g)
                .filter(|(_, s)| s.node.is_some())
                .all(|(_, s)| s.delivered_count(g) >= count)
        })
    }

    /// [`LoopbackCluster::await_deliveries_in`] for the single ring.
    pub fn await_deliveries(&self, count: usize, deadline: Duration) -> bool {
        self.await_deliveries_in(0, count, deadline)
    }

    /// Records a fault between `p` and `q` (or of `p` itself, when
    /// `q == p`) into the sink of every group containing both. Link
    /// faults are `in_transport_sink` already — the transports record
    /// their own sever/heal/kick — so a group sharing that sink gets no
    /// second copy.
    fn record_fault(&self, p: ProcId, q: ProcId, kind: FaultKind, in_transport_sink: bool) {
        for spec in &self.groups {
            if !(spec.proto.procs.contains(&p) && spec.proto.procs.contains(&q)) {
                continue;
            }
            let sink = match &spec.obs {
                Some(own) => own,
                None if in_transport_sink => continue,
                None => &self.obs,
            };
            sink.trace.record(EventKind::Fault { node: p.0, peer: q.0, kind });
        }
    }

    /// Severs the single link pair between `p` and `q` (both directions).
    pub fn sever_pair(&self, p: ProcId, q: ProcId) {
        for (a, b) in [(p, q), (q, p)] {
            if let Some(node) = self.live(a) {
                node.transport().sever(b);
            }
        }
        self.record_fault(p, q, FaultKind::Sever, true);
    }

    /// Heals the single link pair between `p` and `q`.
    pub fn heal_pair(&self, p: ProcId, q: ProcId) {
        for (a, b) in [(p, q), (q, p)] {
            if let Some(node) = self.live(a) {
                node.transport().heal(b);
            }
        }
        self.record_fault(p, q, FaultKind::Heal, true);
    }

    /// Kills the live TCP connections between `p` and `q` without
    /// blocking them: both sides lose in-flight frames and reconnect with
    /// backoff under fresh connection generations.
    pub fn kick_pair(&self, p: ProcId, q: ProcId) {
        for (a, b) in [(p, q), (q, p)] {
            if let Some(node) = self.live(a) {
                node.transport().kick(b);
            }
        }
        self.record_fault(p, q, FaultKind::Kick, true);
    }

    /// Emulates a full partition of `p` from the rest: every link to and
    /// from `p` is severed at both endpoints.
    pub fn isolate(&self, p: ProcId) {
        for q in (0..self.n()).map(ProcId).filter(|q| *q != p) {
            self.sever_pair(p, q);
        }
    }

    /// Ends the emulated partition of `p`.
    pub fn rejoin(&self, p: ProcId) {
        for q in (0..self.n()).map(ProcId).filter(|q| *q != p) {
            self.heal_pair(p, q);
        }
    }

    /// Crashes node `p`: the incarnation stops abruptly (its installed
    /// views, tokens, and buffers are lost), each hosted group's
    /// stable-storage snapshot is kept for [`LoopbackCluster::restart`],
    /// and the crash is recorded as a fault event for the bound monitors.
    ///
    /// # Panics
    ///
    /// Panics if `p` is already crashed.
    pub fn crash(&mut self, p: ProcId) {
        let node = self.slots.get_mut(p.index()).and_then(|s| s.node.take());
        // gcs-lint: allow(panic_path, reason = "documented `# Panics` harness contract: crashing a crashed node is a test bug that must fail loudly")
        let node = node.expect("node already crashed");
        self.record_fault(p, p, FaultKind::Crash, false);
        let (exits, _) = node.stop();
        if let Some(slot) = self.slots.get_mut(p.index()) {
            slot.absorb(exits);
        }
    }

    /// Restarts a crashed node `p` from its stable-storage snapshots. The
    /// fresh incarnation binds the *same* port (the cluster keeps the
    /// listener socket open across the crash) and uses an outbound
    /// connection-generation base of `incarnation << 32`, so peers accept
    /// its new connections instead of refusing them as stale. Fails if
    /// `p` is not crashed, or if one of its group loops died without
    /// leaving a snapshot.
    pub fn restart(&mut self, p: ProcId) -> io::Result<()> {
        let nothing = || io::Error::other(format!("node {p} has nothing to restart from"));
        let restartable =
            |s: &&Slot| s.node.is_none() && s.past.values().all(|e| e.stable.is_some());
        self.slots.get(p.index()).filter(restartable).ok_or_else(nothing)?;
        self.record_fault(p, p, FaultKind::Restart, false);
        let slot = self.slots.get_mut(p.index()).ok_or_else(nothing)?;
        slot.incarnation += 1;
        let transport_cfg =
            TransportConfig { generation_base: slot.incarnation << 32, ..self.transport.clone() };
        let groups = hosted(&self.groups, p, |g| slot.past.get_mut(&g)?.stable.take());
        let node = NetNode::start(
            p,
            slot.listener.try_clone()?,
            &self.addrs,
            transport_cfg,
            self.clock.clone(),
            self.obs.clone(),
            groups,
        )?;
        slot.node = Some(node);
        Ok(())
    }

    /// Stops every node; returns each group's merged trace (global
    /// sequence order, times clamped nondecreasing, spanning every
    /// incarnation of every member) and the aggregated transport
    /// shutdown reports: `report.clean()` asserts that not a single
    /// spawned thread outlived its bounded join deadline.
    pub fn stop_groups(mut self) -> (BTreeMap<u32, ClusterTrace>, ShutdownReport) {
        let mut report = ShutdownReport::default();
        for slot in &mut self.slots {
            if let Some(node) = slot.node.take() {
                let (exits, r) = node.stop();
                slot.absorb(exits);
                report.absorb(r);
            }
        }
        // Slots are in node order and `past` holds exactly the hosted
        // groups, so the slots that yield group `g` are its members.
        let traces = (0..self.groups.len() as u32)
            .map(|g| {
                let per_member: Vec<_> = self
                    .slots
                    .iter_mut()
                    .filter_map(|s| s.past.get_mut(&g))
                    .map(|e| std::mem::take(&mut e.recorded))
                    .collect();
                (g, merge_recordings(&per_member))
            })
            .collect();
        (traces, report)
    }

    /// [`LoopbackCluster::stop_groups`] for the single ring.
    pub fn stop_report(self) -> (ClusterTrace, ShutdownReport) {
        let (mut traces, report) = self.stop_groups();
        (traces.remove(&0).unwrap_or_default(), report)
    }

    /// Stops every node and returns the single ring's merged trace.
    pub fn stop(self) -> ClusterTrace {
        self.stop_report().0
    }
}
