//! The node runtime: hosts the same [`VsNode`]`<`[`TimedVsToTo`]`>` state
//! machine as the simulator, with any [`Transport`] implementation as
//! the event sink.
//!
//! This is the "mapping of the abstract algorithm to the target
//! platform" the paper anticipates. The protocol-facing half lives in
//! [`NodeCore`]: a plain state machine (flush effects, handle one
//! [`Incoming`], fire due timers) with **no threads and no sockets**, so
//! the deterministic simulation harness (`gcs-sim`) can drive the exact
//! code the TCP deployment runs. [`NetNode`] is the one real-threads
//! host: a [`TcpTransport`] plus one [`run_core_loop`] thread per hosted
//! group. Emitted events are recorded with a (time, sequence) stamp from
//! a [`Clock`] shared across a cluster, so per-node traces can be merged
//! into one nondecreasing timed trace for the safety checkers.
//!
//! Crash/recovery: [`NodeCore::stable_state`] snapshots the state assumed
//! to survive on stable storage ([`StableState`]) and
//! [`NodeCore::recover`]/[`HostedGroup::stable`] rebuild a fresh
//! incarnation from it — no installed view, volatile token/buffers gone,
//! but view-identifier watermarks, the message-id counter, and the
//! `VStoTO` client layer intact, which is exactly what the VS/TO safety
//! specs need across a restart.

use crate::transport::{
    GroupEndpoint, Incoming, LockExt, ShutdownReport, TcpTransport, Transport, TransportConfig,
};
use gcs_ioa::{CollectedEffects, Process, TimedTrace, TraceEvent};
use gcs_model::{Majority, ProcId, Time, Value, View};
use gcs_obs::{trace::TraceBuf, Counter, EventKind, Gauge, Obs};
use gcs_vsimpl::{ImplEvent, ProtoConfig, StableState, TimedVsToTo, VsNode, Wire};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A shared time base: milliseconds since an epoch plus a global event
/// sequence, so traces recorded on different nodes (different threads,
/// even different processes on one host would need an external merge) can
/// be ordered consistently.
///
/// A clock is either *wall* (epoch at construction, reads the OS) or
/// *manual* (starts at 0, advanced explicitly) — the manual mode is what
/// makes the simulation harness deterministic: the same nodes stamp their
/// recordings with virtual time instead.
pub struct Clock {
    epoch: Instant,
    seq: AtomicU64,
    manual_ms: Option<AtomicU64>,
}

impl Clock {
    /// A fresh wall clock with the epoch at "now".
    pub fn new() -> Arc<Clock> {
        Arc::new(Clock { epoch: Instant::now(), seq: AtomicU64::new(0), manual_ms: None })
    }

    /// A manual (virtual) clock starting at 0 ms; advance it with
    /// [`Clock::advance_to`].
    pub fn manual() -> Arc<Clock> {
        Arc::new(Clock {
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            manual_ms: Some(AtomicU64::new(0)),
        })
    }

    /// Milliseconds since the epoch (wall) or the current virtual time
    /// (manual).
    pub fn now_ms(&self) -> Time {
        match &self.manual_ms {
            // ordering: Relaxed — monotone virtual-time register with no
            // dependent data; readers only need a recent value, and the
            // checkers re-sort merged traces by (time, seq) anyway.
            Some(m) => m.load(Ordering::Relaxed) as Time,
            None => self.epoch.elapsed().as_millis() as Time,
        }
    }

    /// Advances a manual clock to `t_ms` (monotone: earlier values are
    /// ignored). No-op on a wall clock.
    pub fn advance_to(&self, t_ms: Time) {
        if let Some(m) = &self.manual_ms {
            // ordering: Relaxed — fetch_max keeps the register monotone
            // on its own; nothing is published under this store (see
            // now_ms above).
            m.fetch_max(t_ms, Ordering::Relaxed);
        }
    }

    /// The next global event sequence number.
    pub fn next_seq(&self) -> u64 {
        // ordering: SeqCst — merge stamps across all nodes of a cluster
        // must form one total order every thread agrees on; (time, seq)
        // is the tiebreaker when per-node traces are merged for the
        // safety checkers, so this counter pays for the strongest order.
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Claims a contiguous block of `n` sequence numbers and returns the
    /// first. One atomic per flush instead of one per event: the block is
    /// claimed before the flush's sends go out, so any event another node
    /// records as a consequence of those sends still claims a later
    /// block — the merged order stays causally consistent, it is merely
    /// coarsened to flush granularity between concurrent nodes.
    pub fn next_seq_block(&self, n: u64) -> u64 {
        // ordering: SeqCst — same total-order contract as next_seq.
        self.seq.fetch_add(n, Ordering::SeqCst)
    }
}

/// One recorded trace event with its merge stamp.
#[derive(Clone, Debug)]
pub struct Recorded {
    /// Milliseconds since the cluster clock's epoch.
    pub time: Time,
    /// Global sequence number (total order across the cluster).
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent<ImplEvent>,
}

/// Merges per-node recordings into one timed trace ordered by the global
/// sequence, with times clamped nondecreasing (threads race, so a later
/// sequence number can carry an earlier millisecond reading).
pub fn merge_recordings(per_node: &[Vec<Recorded>]) -> TimedTrace<TraceEvent<ImplEvent>> {
    let mut all: Vec<Recorded> = per_node.iter().flatten().cloned().collect();
    all.sort_by_key(|r| r.seq);
    let mut trace = TimedTrace::new();
    for r in all {
        let at = r.time.max(trace.last_time());
        trace.push(at, r.event);
    }
    trace
}

/// The protocol half of a node, decoupled from threads and sockets: the
/// `VsNode<TimedVsToTo>` state machine plus its pending timers, effect
/// collector, and recording sinks. Drive it by calling [`NodeCore::boot`]
/// once, then [`NodeCore::handle`] per incoming event and
/// [`NodeCore::tick`] whenever [`NodeCore::next_timer_due`] falls due —
/// [`run_core_loop`] (under [`NetNode`]) and the deterministic `gcs-sim`
/// world both do exactly this.
pub struct NodeCore {
    id: ProcId,
    node: VsNode<TimedVsToTo>,
    fx: CollectedEffects<Wire, ImplEvent>,
    timers: Vec<(Time, u64)>,
    clock: Arc<Clock>,
    recorded: Arc<Mutex<Vec<Recorded>>>,
    delivered: Arc<Mutex<Vec<(ProcId, Value)>>>,
    views: Arc<Mutex<Vec<View>>>,
    views_ctr: Counter,
    deliveries_ctr: Counter,
    submits_ctr: Counter,
    trace: TraceBuf,
    // Adaptive-detector export: the δ̂ gauge (`None` under the fixed
    // policy, whose metric set has no detector gauge) and the last δ̂
    // published.
    detector_gauge: Option<Gauge>,
    last_delta_hat: Option<Time>,
}

impl NodeCore {
    /// A fresh node for processor `id`, recording into `obs` and stamping
    /// with `clock`.
    pub fn new(id: ProcId, proto: ProtoConfig, clock: Arc<Clock>, obs: &Obs) -> NodeCore {
        NodeCore::new_in_group(id, proto, clock, obs, None)
    }

    /// Like [`NodeCore::new`], but for a node hosting one group of a
    /// sharded deployment: counters carry a `group` label so per-group
    /// throughput can be told apart on one shared registry.
    pub fn new_in_group(
        id: ProcId,
        proto: ProtoConfig,
        clock: Arc<Clock>,
        obs: &Obs,
        group: Option<u32>,
    ) -> NodeCore {
        let n = proto.procs.len();
        let p0 = proto.p0.clone();
        // Members of P₀ start with v₀ already installed (no NewView event
        // is emitted for it), so seed the view history accordingly.
        let initial = proto.p0.contains(&id).then(|| View::initial(proto.p0.clone()));
        let quorums = Arc::new(Majority::new(n));
        let node = VsNode::new(id, proto, TimedVsToTo::new(id, &p0, quorums));
        NodeCore::assemble(id, node, initial, clock, obs, group)
    }

    /// A recovered incarnation of processor `id`, rebuilt from the
    /// [`StableState`] its previous incarnation persisted. It starts with
    /// no installed view and rejoins through the normal membership path.
    pub fn recover(
        id: ProcId,
        proto: ProtoConfig,
        clock: Arc<Clock>,
        obs: &Obs,
        stable: StableState<TimedVsToTo>,
    ) -> NodeCore {
        NodeCore::recover_in_group(id, proto, clock, obs, stable, None)
    }

    /// Like [`NodeCore::recover`], but with a `group` counter label (see
    /// [`NodeCore::new_in_group`]).
    pub fn recover_in_group(
        id: ProcId,
        proto: ProtoConfig,
        clock: Arc<Clock>,
        obs: &Obs,
        stable: StableState<TimedVsToTo>,
        group: Option<u32>,
    ) -> NodeCore {
        let node = VsNode::recover(id, proto, stable);
        NodeCore::assemble(id, node, None, clock, obs, group)
    }

    fn assemble(
        id: ProcId,
        node: VsNode<TimedVsToTo>,
        initial: Option<View>,
        clock: Arc<Clock>,
        obs: &Obs,
        group: Option<u32>,
    ) -> NodeCore {
        let node_label = id.0.to_string();
        let group_label = group.map(|g| g.to_string());
        let mut l = vec![("node", node_label.as_str())];
        if let Some(g) = group_label.as_deref() {
            l.push(("group", g));
        }
        let detector_gauge = node
            .detector_bounds()
            .is_some()
            .then(|| obs.registry.gauge_labeled("detector_delta_hat_ms", &l));
        NodeCore {
            id,
            node,
            fx: CollectedEffects::new(0),
            timers: Vec::new(),
            clock,
            recorded: Arc::new(Mutex::new(Vec::new())),
            delivered: Arc::new(Mutex::new(Vec::new())),
            views: Arc::new(Mutex::new(initial.into_iter().collect())),
            views_ctr: obs.registry.counter_labeled("node_views_installed_total", &l),
            deliveries_ctr: obs.registry.counter_labeled("node_deliveries_total", &l),
            submits_ctr: obs.registry.counter_labeled("node_submits_total", &l),
            trace: obs.trace.clone(),
            detector_gauge,
            last_delta_hat: None,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Runs the protocol's `on_start` and flushes its effects.
    pub fn boot(&mut self, transport: &dyn Transport) {
        self.fx.set_now(self.clock.now_ms());
        self.node.on_start(&mut self.fx.ctx());
        self.flush(transport);
    }

    /// Handles one incoming event; returns `false` on [`Incoming::Stop`].
    pub fn handle(&mut self, ev: Incoming, transport: &dyn Transport) -> bool {
        match ev {
            Incoming::Stop => return false,
            Incoming::Wire { from, wire } => {
                self.fx.set_now(self.clock.now_ms());
                self.node.on_message(from, wire, &mut self.fx.ctx());
            }
            Incoming::Submit { batch } => {
                self.fx.set_now(self.clock.now_ms());
                for a in batch {
                    self.node.on_input(a, &mut self.fx.ctx());
                }
            }
        }
        self.flush(transport);
        true
    }

    /// Fires every timer due at the clock's current time.
    pub fn tick(&mut self, transport: &dyn Transport) {
        let now = self.clock.now_ms();
        self.fx.set_now(now);
        let due: Vec<u64> =
            self.timers.iter().filter(|(d, _)| *d <= now).map(|(_, k)| *k).collect();
        self.timers.retain(|(d, _)| *d > now);
        for kind in due {
            self.node.on_timer(kind, &mut self.fx.ctx());
        }
        self.flush(transport);
    }

    /// The earliest pending timer deadline, in clock milliseconds.
    pub fn next_timer_due(&self) -> Option<Time> {
        self.timers.iter().map(|(d, _)| *d).min()
    }

    /// Records emitted events, hands sends to the transport, and absorbs
    /// freshly set timers. Emits are recorded *before* sends go out so
    /// that, in the merged global order, this node's gpsnd precedes any
    /// peer's gprcv of the same message.
    fn flush(&mut self, transport: &dyn Transport) {
        // One batched token can deliver hundreds of messages in a single
        // flush; collect them and hand the transport the whole batch so
        // clients get one vectored write instead of a syscall apiece. The
        // recording sinks are batched the same way: one clock read, one
        // claimed sequence block, one lock acquisition per flush instead
        // of one per event — at ring throughput the per-event constants
        // here were a measurable slice of the whole cluster's CPU.
        let emits = std::mem::take(&mut self.fx.emits);
        if !emits.is_empty() {
            let time = self.clock.now_ms();
            let seq0 = self.clock.next_seq_block(emits.len() as u64);
            let mut deliveries: Vec<(ProcId, Value)> = Vec::new();
            let mut new_views: Vec<View> = Vec::new();
            let mut kinds: Vec<EventKind> = Vec::new();
            for e in &emits {
                match e {
                    ImplEvent::Brcv { src, a, .. } => {
                        deliveries.push((*src, a.clone()));
                        kinds.push(EventKind::Brcv {
                            node: self.id.0,
                            src: src.0,
                            value: a.fingerprint(),
                        });
                    }
                    ImplEvent::NewView { v, .. } => {
                        self.views.lock_clean().push(v.clone());
                        self.views_ctr.inc();
                        new_views.push(v.clone());
                        kinds.push(EventKind::ViewChange {
                            node: self.id.0,
                            epoch: v.id.epoch,
                            size: v.set.len() as u32,
                        });
                    }
                    ImplEvent::Bcast { a, .. } => {
                        self.submits_ctr.inc();
                        kinds.push(EventKind::Bcast { node: self.id.0, value: a.fingerprint() });
                    }
                    _ => {}
                }
            }
            self.trace.record_many(kinds);
            {
                let mut rec = self.recorded.lock_clean();
                rec.extend(emits.into_iter().enumerate().map(|(i, e)| Recorded {
                    time,
                    seq: seq0 + i as u64,
                    event: TraceEvent::App(e),
                }));
            }
            if !deliveries.is_empty() {
                self.deliveries_ctr.add(deliveries.len() as u64);
                self.delivered.lock_clean().extend(deliveries.iter().cloned());
                transport.push_deliveries(&deliveries);
            }
            // Installed views go out to subscribers too: shard routers
            // refresh their cached shard map from these pushes instead of
            // polling, so a router learns about a membership change from
            // the first surviving member it hears from.
            for v in &new_views {
                transport.push_view(v);
            }
        }
        for (to, wire) in self.fx.take_sends() {
            transport.send(to, wire);
        }
        for (delay, kind) in std::mem::take(&mut self.fx.timers) {
            self.timers.push((self.clock.now_ms() + delay, kind));
        }
        self.export_detector_bounds();
    }

    /// Publishes the adaptive detector's effective δ̂ when it moves: a
    /// `DetectorBound` trace event (feeding the re-derived b/d monitors)
    /// plus the `detector_delta_hat_ms` gauge. A no-op under the fixed
    /// policy.
    fn export_detector_bounds(&mut self) {
        let (Some(gauge), Some(d)) = (&self.detector_gauge, self.node.detector_bounds()) else {
            return;
        };
        if self.last_delta_hat == Some(d) {
            return;
        }
        self.last_delta_hat = Some(d);
        gauge.set(d as i64);
        self.trace.record(EventKind::DetectorBound { node: self.id.0, delta_hat_ms: d });
    }

    /// Snapshots the stable-storage state (for crash/recovery modeling).
    pub fn stable_state(&self) -> StableState<TimedVsToTo> {
        self.node.stable_state()
    }

    /// The currently installed view, if any.
    pub fn current_view(&self) -> Option<View> {
        self.node.current_view().cloned()
    }

    /// Shared handle to the recorded (stamped) trace events.
    pub fn recorded_handle(&self) -> Arc<Mutex<Vec<Recorded>>> {
        self.recorded.clone()
    }

    /// Shared handle to the client deliveries.
    pub fn delivered_handle(&self) -> Arc<Mutex<Vec<(ProcId, Value)>>> {
        self.delivered.clone()
    }

    /// Shared handle to the installed-view history.
    pub fn views_handle(&self) -> Arc<Mutex<Vec<View>>> {
        self.views.clone()
    }

    /// What this node has delivered to its client so far.
    pub fn delivered(&self) -> Vec<(ProcId, Value)> {
        self.delivered.lock_clean().clone()
    }

    /// Every view this node has installed, in order.
    pub fn views(&self) -> Vec<View> {
        self.views.lock_clean().clone()
    }

    /// A snapshot of this node's recorded (stamped) trace events.
    pub fn recorded(&self) -> Vec<Recorded> {
        self.recorded.lock_clean().clone()
    }
}

/// Drives a [`NodeCore`] on the current thread until it stops: boot,
/// then alternate between channel events and due timers, draining hot
/// channels in bounded batches so timers are not starved under load.
/// [`NetNode`] runs one such loop per hosted group, each on its own
/// thread against its own grouped transport endpoint. Returns the core
/// on exit so callers can snapshot [`NodeCore::stable_state`] for
/// crash/recovery modeling.
pub fn run_core_loop(
    mut core: NodeCore,
    events_rx: mpsc::Receiver<Incoming>,
    transport: &dyn Transport,
    clock: &Clock,
) -> NodeCore {
    core.boot(transport);
    loop {
        // Wait for the next event or timer.
        let timeout = core
            .next_timer_due()
            .map(|due| Duration::from_millis(due.saturating_sub(clock.now_ms())))
            .unwrap_or(Duration::from_millis(20));
        match events_rx.recv_timeout(timeout) {
            Ok(ev) => {
                if !core.handle(ev, transport) {
                    return core;
                }
                // Drain what queued behind it (bounded) so a hot channel
                // is consumed in batches, then fire any timer that came
                // due meanwhile — recv_timeout alone would starve timers
                // under sustained load.
                for _ in 0..128 {
                    match events_rx.try_recv() {
                        Ok(ev) => {
                            if !core.handle(ev, transport) {
                                return core;
                            }
                        }
                        Err(_) => break,
                    }
                }
                if core.next_timer_due().is_some_and(|due| due <= clock.now_ms()) {
                    core.tick(transport);
                }
            }
            Err(RecvTimeoutError::Timeout) => core.tick(transport),
            Err(RecvTimeoutError::Disconnected) => return core,
        }
    }
}

/// One group instance a [`NetNode`] hosts.
pub struct HostedGroup {
    /// The group's protocol configuration; `proto.procs` is its member
    /// set.
    pub proto: ProtoConfig,
    /// `Some`: one group among several behind the transport — the core
    /// records into this sink (the b/d monitors need one ring's event
    /// stream, not an interleaving of independent rings) and its
    /// counters carry a `group` label. `None`: the group *is* the
    /// deployment — a single ring sharing the transport's sink,
    /// unlabeled.
    pub obs: Option<Obs>,
    /// The [`StableState`] a previous incarnation persisted, to recover
    /// from; `None` boots a fresh node.
    pub stable: Option<StableState<TimedVsToTo>>,
}

/// A hosted group's running half: its event channel, its protocol
/// thread, and shared handles onto what the core has recorded so far.
pub struct GroupHandle {
    events_tx: Sender<Incoming>,
    thread: JoinHandle<NodeCore>,
    recorded: Arc<Mutex<Vec<Recorded>>>,
    delivered: Arc<Mutex<Vec<(ProcId, Value)>>>,
    views: Arc<Mutex<Vec<View>>>,
}

impl GroupHandle {
    /// Submits a client value locally (same path a TCP client's `Submit`
    /// frame takes).
    pub fn submit(&self, a: Value) {
        let _ = self.events_tx.send(Incoming::Submit { batch: vec![a] });
    }

    /// What this group has delivered to its client so far.
    pub fn delivered(&self) -> Vec<(ProcId, Value)> {
        self.delivered.lock_clean().clone()
    }

    /// How many values this group has delivered so far. Cheap (no
    /// clone), for progress polling against a live high-throughput node.
    pub fn delivered_count(&self) -> usize {
        self.delivered.lock_clean().len()
    }

    /// Every view this group has installed, in order.
    pub fn views(&self) -> Vec<View> {
        self.views.lock_clean().clone()
    }
}

/// What one hosted group leaves behind when its node stops.
#[derive(Default)]
pub struct GroupExit {
    /// The recorded (stamped) trace events.
    pub recorded: Vec<Recorded>,
    /// The client deliveries, in order.
    pub delivered: Vec<(ProcId, Value)>,
    /// The installed views, in order.
    pub views: Vec<View>,
    /// The stable-storage snapshot a restart recovers from
    /// ([`HostedGroup::stable`]); `None` if the group's loop panicked.
    pub stable: Option<StableState<TimedVsToTo>>,
}

/// A running VS/TO node: **one** TCP endpoint and, behind it, one
/// [`run_core_loop`] thread per hosted group, each wired to the shared
/// [`TcpTransport`] through a [`GroupEndpoint`] that tags outbound
/// frames with the group id. Peers keep a single connection per node
/// pair no matter how many groups the two co-host. Group 0 rides the
/// untagged frames, so a node hosting only group 0 is the plain
/// single-ring deployment, byte-identical on the wire.
pub struct NetNode {
    id: ProcId,
    transport: Arc<TcpTransport>,
    groups: BTreeMap<u32, GroupHandle>,
    /// Keeps the group-0 route receiver alive when this node does not
    /// host group 0 (the transport pre-registers group 0 at start;
    /// dropping the receiver would turn misrouted frames into reader
    /// disconnects instead of harmless drops).
    _park_rx: Option<Receiver<Incoming>>,
}

impl NetNode {
    /// Boots node `id` hosting `groups` (group id → instance). Binds
    /// nothing itself — the caller provides the already-bound `listener`
    /// (so ephemeral ports can be collected before any node starts) and
    /// the full peer address map. The transport records into `obs`.
    ///
    /// When any group recovers from a [`StableState`], pass a
    /// `transport_cfg` whose `generation_base` exceeds every generation
    /// the old incarnation used (e.g. `incarnation << 32`), or peers
    /// will refuse the new connections as stale.
    pub fn start(
        id: ProcId,
        listener: TcpListener,
        peers: &BTreeMap<ProcId, SocketAddr>,
        transport_cfg: TransportConfig,
        clock: Arc<Clock>,
        obs: Obs,
        groups: BTreeMap<u32, HostedGroup>,
    ) -> io::Result<NetNode> {
        let (tx0, rx0) = mpsc::channel::<Incoming>();
        let transport = TcpTransport::start_with_obs(
            id,
            listener,
            peers,
            transport_cfg,
            tx0.clone(),
            obs.clone(),
        )?;
        let mut rx0 = Some(rx0);
        let mut handles = BTreeMap::new();
        for (g, hosted) in groups {
            let (sink, label) = match &hosted.obs {
                Some(own) => (own, Some(g)),
                None => (&obs, None),
            };
            let core = match hosted.stable {
                Some(stable) => {
                    NodeCore::recover_in_group(id, hosted.proto, clock.clone(), sink, stable, label)
                }
                None => NodeCore::new_in_group(id, hosted.proto, clock.clone(), sink, label),
            };
            // Group 0 rides the route the transport pre-registered at
            // start; local submissions reuse the same channel.
            let (events_tx, events_rx) = match (g, rx0.take()) {
                (0, Some(rx)) => (tx0.clone(), rx),
                (_, keep) => {
                    rx0 = keep;
                    let (tx, rx) = mpsc::channel::<Incoming>();
                    transport.register_group(g, tx.clone());
                    (tx, rx)
                }
            };
            let recorded = core.recorded_handle();
            let delivered = core.delivered_handle();
            let views = core.views_handle();
            let endpoint = GroupEndpoint::new(g, transport.clone());
            let clock = clock.clone();
            let thread =
                std::thread::spawn(move || run_core_loop(core, events_rx, &endpoint, &clock));
            handles.insert(g, GroupHandle { events_tx, thread, recorded, delivered, views });
        }
        Ok(NetNode { id, transport, groups: handles, _park_rx: rx0 })
    }

    /// This node's identifier.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The transport endpoint (for severing links, counters, the bound
    /// address).
    pub fn transport(&self) -> &Arc<TcpTransport> {
        &self.transport
    }

    /// The hosted group `g`, if this node hosts it.
    pub fn group(&self, g: u32) -> Option<&GroupHandle> {
        self.groups.get(&g)
    }

    /// How many values this node has delivered so far, over all the
    /// groups it hosts.
    pub fn delivered_count(&self) -> usize {
        self.groups.values().map(GroupHandle::delivered_count).sum()
    }

    /// Stops every group loop and then the transport; returns what each
    /// group leaves behind and whether every transport thread was joined
    /// within the shutdown deadline. This is also the crash model: the
    /// volatile state (installed view, token, buffers) is discarded with
    /// the loops, and [`GroupExit::stable`] is what a restart recovers
    /// from.
    pub fn stop(self) -> (BTreeMap<u32, GroupExit>, ShutdownReport) {
        for rt in self.groups.values() {
            let _ = rt.events_tx.send(Incoming::Stop);
        }
        let mut exits = BTreeMap::new();
        for (g, rt) in self.groups {
            let stable = rt.thread.join().ok().map(|core| core.stable_state());
            exits.insert(
                g,
                GroupExit {
                    recorded: std::mem::take(&mut *rt.recorded.lock_clean()),
                    delivered: std::mem::take(&mut *rt.delivered.lock_clean()),
                    views: std::mem::take(&mut *rt.views.lock_clean()),
                    stable,
                },
            );
        }
        (exits, self.transport.stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::msg::AppMsg;
    use gcs_model::Label;
    use gcs_obs::MetricValue;
    use gcs_vsimpl::{DetectorPolicy, TokenMsg};
    use std::mem::size_of;

    /// What one operation costs in each layer that carries it: a value
    /// rides in a message, which rides in a token entry and in up to
    /// 17 recorded trace events per operation on a 5-ring. A field that
    /// widens any of these is paid per event, not per operation.
    #[test]
    fn per_operation_types_keep_their_footprint() {
        assert_eq!(size_of::<Value>(), 32);
        assert_eq!(size_of::<Label>(), 24);
        assert!(size_of::<AppMsg>() <= 64, "AppMsg is {} B", size_of::<AppMsg>());
        assert!(size_of::<TokenMsg>() <= 80, "TokenMsg is {} B", size_of::<TokenMsg>());
        assert!(size_of::<ImplEvent>() <= 88, "ImplEvent is {} B", size_of::<ImplEvent>());
        assert!(size_of::<Recorded>() <= 104, "Recorded is {} B", size_of::<Recorded>());
    }

    struct Discard;

    impl Transport for Discard {
        fn send(&self, _: ProcId, _: Wire) {}
        fn push_delivery(&self, _: ProcId, _: &Value) {}
    }

    /// The detector gauges a booted core registers, as (rendered name,
    /// value).
    fn detector_gauges(detector: DetectorPolicy, group: Option<u32>) -> Vec<(String, i64)> {
        let obs = Obs::new();
        let mut proto = ProtoConfig::standard(3, 10);
        proto.detector = detector;
        let mut core = NodeCore::new_in_group(ProcId(1), proto, Clock::manual(), &obs, group);
        core.boot(&Discard);
        let snap = obs.registry.snapshot();
        snap.iter()
            .filter(|(name, _)| name.starts_with("detector_"))
            .map(|(name, v)| match v {
                MetricValue::Gauge(g) => (name, *g),
                other => panic!("{name} is not a gauge: {other:?}"),
            })
            .collect()
    }

    /// An adaptive core exports exactly one detector gauge, δ̂, which a
    /// cold detector holds at the configured δ; a fixed core exports
    /// none.
    #[test]
    fn adaptive_core_exports_one_delta_hat_gauge() {
        assert_eq!(
            detector_gauges(DetectorPolicy::Adaptive, None),
            [("detector_delta_hat_ms{node=\"1\"}".to_string(), 10)]
        );
        assert_eq!(
            detector_gauges(DetectorPolicy::Adaptive, Some(2)),
            [("detector_delta_hat_ms{node=\"1\",group=\"2\"}".to_string(), 10)]
        );
        assert_eq!(detector_gauges(DetectorPolicy::Fixed, None), []);
    }
}
