//! The TCP peer transport: one accept loop per node, one reconnecting
//! writer thread per peer, bounded send queues, and connection-generation
//! numbering so frames from a stale socket can never be delivered into a
//! newer incarnation of a link.
//!
//! The transport deliberately provides the *timed asynchronous* service
//! the paper assumes and nothing more: frames can be lost (bounded queues
//! drop on overflow, reconnects lose whatever was in flight) and the
//! protocol layer above recovers through its own timeouts. There are no
//! acknowledgements and no retransmissions here.
//!
//! Partitions are emulated at this layer: [`TcpTransport::sever`] closes
//! the live sockets to a peer and drops every subsequent frame in both
//! directions until [`TcpTransport::heal`]; [`TcpTransport::kick`] closes
//! the sockets *without* blocking the peer, which exercises the reconnect
//! path (capped exponential backoff) while the membership layer rides out
//! the loss.
//!
//! The node runtime itself only needs the tiny [`Transport`] trait —
//! enqueue a packet, push a client delivery — so the same
//! `NodeCore` runs unchanged over this TCP endpoint or over the
//! deterministic in-process transport of `gcs-sim`.

use crate::codec::{read_frame, write_frame, Frame, FrameWriter, HelloKind};
use crate::queue::{self, QueueReceiver, QueueSender, RecvTimeoutError, TrySendError};
// `MutexApi::lock_clean` locks a std mutex, recovering the guard from a
// poisoned one: every structure these mutexes guard is updated in single
// consistent steps, and one panicking thread must not cascade into
// killing the accept loop, every reader and every writer.
use gcs_mc::MutexApi;
use gcs_model::{ProcId, Value, View};
use gcs_obs::{Counter, DropReason, EventKind, FaultKind, Obs};
use gcs_vsimpl::Wire;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the node runtime needs from a transport — the seam between the
/// protocol stack and the wire. [`TcpTransport`] is the deployable
/// implementation; the deterministic simulator (`gcs-sim`) provides an
/// in-process one, so the exact same node code runs under both.
///
/// The contract mirrors the timed asynchronous model: `send` is
/// fire-and-forget (frames may be dropped, the protocol recovers via its
/// timers), and per-link delivery is FIFO with no duplication — the
/// guarantees a TCP connection stream gives, which the stale-generation
/// filter extends across reconnects.
pub trait Transport {
    /// Enqueues a protocol packet for `to`. May silently drop (bounded
    /// queues, severed links, no route); never blocks the caller.
    fn send(&self, to: ProcId, wire: Wire);
    /// Pushes a delivery notification to connected clients, if any.
    fn push_delivery(&self, src: ProcId, a: &Value);
    /// Pushes a batch of delivery notifications. The default forwards one
    /// at a time; transports with a vectored framing fast path override
    /// it to coalesce the whole batch into one write per client.
    fn push_deliveries(&self, batch: &[(ProcId, Value)]) {
        for (src, a) in batch {
            self.push_delivery(*src, a);
        }
    }
    /// Announces a newly installed view to subscribed clients, so shard
    /// routers can refresh their cached group → member-set map without
    /// polling. Default: no-op (the simulator and tests don't carry
    /// client subscriptions).
    fn push_view(&self, _view: &View) {}
}

/// Most frames a writer thread coalesces into one vectored write; keeps
/// a single syscall's iovec bounded even when the queue is deep. Public
/// because it also bounds the writer's in-flight window — frames in the
/// current batch are neither counted sent nor dropped yet — which
/// conservation-accounting tests need to know.
pub const COALESCE_FRAMES: usize = 256;
/// Byte ceiling for one coalesced write; stops a batch of large tokens
/// from building an arbitrarily large buffer before flushing.
const COALESCE_BYTES: usize = 1 << 20;
/// First reconnect delay of a writer thread.
const BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Reconnect delay cap (exponential doubling stops here).
const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// What [`TcpTransport::stop`] observed while tearing the endpoint down:
/// every spawned thread (accept loop, per-peer writers, per-connection
/// readers) is joined with a bounded deadline, so a test that leaks a
/// wedged thread finds out *in that test* rather than as cross-test
/// flakiness.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShutdownReport {
    /// Threads joined within the deadline.
    pub joined: usize,
    /// Threads still running at the deadline (detached, leaked).
    pub leaked: usize,
}

impl ShutdownReport {
    /// Whether every thread was joined.
    pub fn clean(&self) -> bool {
        self.leaked == 0
    }

    /// Accumulates another report.
    pub fn absorb(&mut self, other: ShutdownReport) {
        self.joined += other.joined;
        self.leaked += other.leaked;
    }
}

/// Transport tuning knobs.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Per-peer outbound queue depth; frames beyond it are dropped (the
    /// protocol recovers via its token-loss and probe timers).
    pub send_queue: usize,
    /// Test-only fault injection: sleep this long before every outbound
    /// frame write. Unlike `sever`/`kick`, this violates the timing
    /// assumptions *covertly* — no fault event is recorded — which is
    /// exactly what the online bound monitors are supposed to catch.
    pub inject_send_delay: Option<Duration>,
    /// Added to every outbound connection generation. A restarted node
    /// passes `incarnation << 32` here: peers remember the highest
    /// generation they ever saw from us (`latest_gen`), so a fresh
    /// incarnation restarting its counter at 1 would be refused forever.
    /// The base keeps generations monotone across process lifetimes.
    pub generation_base: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig { send_queue: 1024, inject_send_delay: None, generation_base: 0 }
    }
}

/// What the transport hands up to the node runtime.
#[derive(Debug)]
pub enum Incoming {
    /// A protocol packet from a peer link.
    Wire {
        /// The sending node (from the connection's `Hello`).
        from: ProcId,
        /// The packet.
        wire: Wire,
    },
    /// A client submitted values over a client connection (or the local
    /// harness injected them). One event can carry a whole burst: the
    /// reader coalesces every `Submit` frame already sitting in its read
    /// buffer, so a load generator's batched write crosses the channel
    /// as one event and the node runs one flush for the lot.
    Submit {
        /// The values to broadcast, in submission order.
        batch: Vec<Value>,
    },
    /// Shut the node down.
    Stop,
}

/// Pre-resolved observability handles for one transport endpoint.
/// Counters are looked up in the registry once at startup; the frame
/// hot paths touch only the shared atomics and the trace ring.
pub(crate) struct NetObs {
    obs: Obs,
    node: u32,
    sent: Counter,
    recv: Counter,
    drop_blocked: Counter,
    drop_queue_full: Counter,
    drop_no_link: Counter,
    drop_write_error: Counter,
    rejected: Counter,
    reconnects: Counter,
    faults: Counter,
}

impl NetObs {
    pub(crate) fn new(obs: Obs, node: ProcId) -> Self {
        let id = node.0.to_string();
        let l = [("node", id.as_str())];
        let r = &obs.registry;
        let dropped = |reason: &str| {
            r.counter_labeled(
                "net_frames_dropped_total",
                &[("node", id.as_str()), ("reason", reason)],
            )
        };
        NetObs {
            node: node.0,
            sent: r.counter_labeled("net_frames_sent_total", &l),
            recv: r.counter_labeled("net_frames_recv_total", &l),
            drop_blocked: dropped("blocked"),
            drop_queue_full: dropped("queue_full"),
            drop_no_link: dropped("no_link"),
            drop_write_error: dropped("write_error"),
            rejected: r.counter_labeled("net_frames_rejected_total", &l),
            reconnects: r.counter_labeled("net_reconnects_total", &l),
            faults: r.counter_labeled("net_faults_injected_total", &l),
            obs,
        }
    }

    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    fn on_send(&self, to: ProcId) {
        self.sent.inc();
        self.obs.trace.record(EventKind::Send { from: self.node, to: to.0 });
    }

    fn on_recv(&self, from: ProcId) {
        self.recv.inc();
        self.obs.trace.record(EventKind::Recv { node: self.node, from: from.0 });
    }

    fn on_drop(&self, to: ProcId, reason: DropReason) {
        match reason {
            DropReason::Blocked => self.drop_blocked.inc(),
            DropReason::QueueFull => self.drop_queue_full.inc(),
            DropReason::NoLink => self.drop_no_link.inc(),
            DropReason::WriteError => self.drop_write_error.inc(),
        }
        self.obs.trace.record(EventKind::Drop { node: self.node, to: to.0, reason });
    }

    fn on_reject(&self, from: ProcId) {
        self.rejected.inc();
        self.obs.trace.record(EventKind::Reject { node: self.node, from: from.0 });
    }

    fn on_link_up(&self, peer: ProcId, generation: u64) {
        self.reconnects.inc();
        self.obs.trace.record(EventKind::LinkUp { node: self.node, peer: peer.0, generation });
    }

    fn on_link_down(&self, peer: ProcId) {
        self.obs.trace.record(EventKind::LinkDown { node: self.node, peer: peer.0 });
    }

    fn on_fault(&self, peer: ProcId, kind: FaultKind) {
        self.faults.inc();
        self.obs.trace.record(EventKind::Fault { node: self.node, peer: peer.0, kind });
    }
}

/// Counters for one peer link.
#[derive(Default)]
struct LinkStats {
    /// Connection attempts (successful or not).
    attempts: AtomicU64,
    /// Current connection generation (bumped on every established
    /// connection).
    generation: AtomicU64,
    /// Whether the outbound side is currently connected.
    connected: AtomicBool,
}

struct PeerLink {
    /// Outbound queue entries carry the destination group; the writer
    /// tags non-zero groups with [`Frame::PeerGroup`] on the wire.
    tx: QueueSender<(u32, Wire)>,
    stats: Arc<LinkStats>,
    /// The live outbound socket, kept so `sever`/`kick` can close it out
    /// from under the writer thread.
    current: Arc<Mutex<Option<TcpStream>>>,
}

/// Shared state the reader/acceptor threads need.
struct Shared {
    me: ProcId,
    shutdown: AtomicBool,
    /// Peers whose traffic is dropped in both directions (emulated
    /// partition).
    blocked: Mutex<BTreeSet<ProcId>>,
    /// Highest hello generation seen per peer; readers on stale
    /// connections stop delivering as soon as a newer one appears.
    latest_gen: Mutex<BTreeMap<ProcId, u64>>,
    /// Live inbound peer sockets, for severing.
    inbound: Mutex<Vec<(ProcId, TcpStream)>>,
    /// Live client connections, for delivery push.
    subscribers: Mutex<Vec<TcpStream>>,
    /// Every accepted socket, append-only. A reader that never delivers
    /// its `Hello` is registered nowhere else, so `stop` closes these to
    /// guarantee every reader unblocks (deterministic shutdown).
    accepted: Mutex<Vec<TcpStream>>,
    /// Per-connection reader threads, joined (bounded) at `stop`.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Inbound routing: group id → the event channel of the `NodeCore`
    /// hosting that group instance. Group 0 is the channel passed to
    /// `start_with_obs`, so a single-group node never touches this
    /// beyond startup. Readers refresh their cached copy on a miss.
    routes: Mutex<BTreeMap<u32, Sender<Incoming>>>,
    /// Observability sink: counters plus the structured event trace.
    netobs: NetObs,
}

impl Shared {
    fn is_blocked(&self, p: ProcId) -> bool {
        self.blocked.lock_clean().contains(&p)
    }
}

/// A node's TCP endpoint: an accept loop, per-peer reconnecting writers,
/// and an event channel consumed by the node runtime.
pub struct TcpTransport {
    shared: Arc<Shared>,
    links: BTreeMap<ProcId, PeerLink>,
    local_addr: SocketAddr,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Starts the endpoint for node `me` with its own private
    /// observability sink; see [`TcpTransport::start_with_obs`].
    pub fn start(
        me: ProcId,
        listener: TcpListener,
        peers: &BTreeMap<ProcId, SocketAddr>,
        config: TransportConfig,
        events: Sender<Incoming>,
    ) -> io::Result<Arc<TcpTransport>> {
        TcpTransport::start_with_obs(me, listener, peers, config, events, Obs::new())
    }

    /// Starts the endpoint for node `me`: `listener` accepts inbound
    /// connections, `peers` maps every *other* node to its address, and
    /// decoded traffic is delivered into `events`. Frame counters and
    /// trace events are recorded into `obs` under a `node` label; a
    /// cluster passes one shared `Obs` to every node so the merged event
    /// stream sits on a single clock.
    pub fn start_with_obs(
        me: ProcId,
        listener: TcpListener,
        peers: &BTreeMap<ProcId, SocketAddr>,
        config: TransportConfig,
        events: Sender<Incoming>,
        obs: Obs,
    ) -> io::Result<Arc<TcpTransport>> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            me,
            shutdown: AtomicBool::new(false),
            blocked: Mutex::new(BTreeSet::new()),
            latest_gen: Mutex::new(BTreeMap::new()),
            inbound: Mutex::new(Vec::new()),
            subscribers: Mutex::new(Vec::new()),
            accepted: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            routes: Mutex::new(BTreeMap::from([(0, events.clone())])),
            netobs: NetObs::new(obs, me),
        });
        let mut handles = Vec::new();

        // Accept loop. Inbound traffic reaches the node runtimes via the
        // group route table, seeded above with `events` as group 0.
        {
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                accept_loop(listener, shared);
            }));
        }

        // One writer per peer.
        let mut links = BTreeMap::new();
        for (&p, &addr) in peers {
            if p == me {
                continue;
            }
            let (tx, rx) = queue::bounded::<(u32, Wire), _>(config.send_queue);
            let stats = Arc::new(LinkStats::default());
            let current = Arc::new(Mutex::new(None));
            {
                let shared = shared.clone();
                let stats = stats.clone();
                let current = current.clone();
                let config = config.clone();
                handles.push(std::thread::spawn(move || {
                    writer_loop(p, addr, rx, shared, stats, current, config);
                }));
            }
            links.insert(p, PeerLink { tx, stats, current });
        }

        Ok(Arc::new(TcpTransport { shared, links, local_addr, handles: Mutex::new(handles) }))
    }

    /// The address the listener actually bound (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Enqueues a packet for `to` on group 0. Frames to blocked peers,
    /// unknown peers, or over a full queue are silently dropped (and
    /// counted).
    pub fn send(&self, to: ProcId, wire: Wire) {
        self.send_group(0, to, wire);
    }

    /// Enqueues a packet for the given group instance on `to`. All
    /// groups share the peer's single connection and outbound queue;
    /// the group id only selects the frame tagging (group 0 rides the
    /// untagged [`Frame::Peer`] for wire compatibility) and the event
    /// channel on the receiving side.
    pub fn send_group(&self, group: u32, to: ProcId, wire: Wire) {
        if self.shared.is_blocked(to) {
            self.shared.netobs.on_drop(to, DropReason::Blocked);
            return;
        }
        match self.links.get(&to) {
            None => {
                self.shared.netobs.on_drop(to, DropReason::NoLink);
            }
            Some(link) => match link.tx.try_send((group, wire)) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.shared.netobs.on_drop(to, DropReason::QueueFull);
                }
            },
        }
    }

    /// Registers the event channel for a group instance hosted behind
    /// this endpoint. Inbound [`Frame::PeerGroup`]/[`Frame::SubmitGroup`]
    /// frames for `group` are dispatched into `tx`; frames for a group
    /// with no registered route are rejected (and counted). Group 0 is
    /// pre-registered with the channel passed at startup.
    pub fn register_group(&self, group: u32, tx: Sender<Incoming>) {
        self.shared.routes.lock_clean().insert(group, tx);
    }

    /// Pushes a delivery notification to every connected client.
    pub fn push_delivery(&self, src: ProcId, a: &Value) {
        let frame = Frame::Deliver { src, a: a.clone() };
        let mut subs = self.shared.subscribers.lock_clean();
        subs.retain_mut(|stream| write_frame(stream, &frame).is_ok());
    }

    /// Pushes a batch of deliveries: the whole batch travels as one
    /// `DeliverBatch` frame, encoded once, and lands on each client
    /// socket as a single write instead of one frame (and one decode
    /// dispatch at the client) per notification.
    pub fn push_deliveries(&self, batch: &[(ProcId, Value)]) {
        self.push_deliveries_group(0, batch);
    }

    /// Pushes a batch of deliveries from one group instance. Group 0
    /// uses the untagged [`Frame::DeliverBatch`] so existing clients
    /// keep working; other groups are tagged [`Frame::DeliverGroup`].
    pub fn push_deliveries_group(&self, group: u32, batch: &[(ProcId, Value)]) {
        if batch.is_empty() {
            return;
        }
        let mut subs = self.shared.subscribers.lock_clean();
        if subs.is_empty() {
            return;
        }
        let mut fw = FrameWriter::new();
        let frame = if group == 0 {
            Frame::DeliverBatch(batch.to_vec())
        } else {
            Frame::DeliverGroup { group, batch: batch.to_vec() }
        };
        fw.push(&frame);
        subs.retain_mut(|stream| fw.write_to(stream).is_ok());
    }

    /// Pushes a view-change notification for a group instance to every
    /// subscribed client — the shard-map refresh path for routers.
    pub fn push_view_group(&self, group: u32, view: &View) {
        let mut subs = self.shared.subscribers.lock_clean();
        if subs.is_empty() {
            return;
        }
        let frame = Frame::View { group, view: view.clone() };
        subs.retain_mut(|stream| write_frame(stream, &frame).is_ok());
    }

    /// Emulates a network partition from this node to `p`: closes the live
    /// sockets and drops all traffic in both directions until
    /// [`TcpTransport::heal`].
    pub fn sever(&self, p: ProcId) {
        self.shared.netobs.on_fault(p, FaultKind::Sever);
        self.shared.blocked.lock_clean().insert(p);
        self.close_sockets(p);
    }

    /// Ends an emulated partition; the writer thread reconnects on its
    /// next backoff tick.
    pub fn heal(&self, p: ProcId) {
        self.shared.netobs.on_fault(p, FaultKind::Heal);
        self.shared.blocked.lock_clean().remove(&p);
    }

    /// Kills the live TCP connections to `p` without blocking the peer:
    /// in-flight frames are lost and the writer reconnects with backoff
    /// under a fresh connection generation.
    pub fn kick(&self, p: ProcId) {
        self.shared.netobs.on_fault(p, FaultKind::Kick);
        self.close_sockets(p);
    }

    fn close_sockets(&self, p: ProcId) {
        if let Some(link) = self.links.get(&p) {
            if let Some(stream) = link.current.lock_clean().take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let mut inbound = self.shared.inbound.lock_clean();
        inbound.retain(|(q, stream)| {
            if *q == p {
                let _ = stream.shutdown(Shutdown::Both);
                false
            } else {
                true
            }
        });
    }

    /// Whether the outbound link to `p` is currently established.
    pub fn connected(&self, p: ProcId) -> bool {
        // ordering: Relaxed — advisory status bit read by tests/metrics;
        // no data is synchronized through it (see the writer loop).
        self.links.get(&p).is_some_and(|l| l.stats.connected.load(Ordering::Relaxed))
    }

    /// Connection attempts made toward `p` (reconnect/backoff activity).
    pub fn connect_attempts(&self, p: ProcId) -> u64 {
        // ordering: Relaxed — monotone stat counter, observational only.
        self.links.get(&p).map_or(0, |l| l.stats.attempts.load(Ordering::Relaxed))
    }

    /// The current outbound connection generation toward `p`.
    pub fn generation(&self, p: ProcId) -> u64 {
        // ordering: Relaxed — observational read; the authoritative
        // generation travels in the Hello frame, not through this load.
        self.links.get(&p).map_or(0, |l| l.stats.generation.load(Ordering::Relaxed))
    }

    /// Outbound frames dropped (blocked peer, no link, full queue, or
    /// write error), summed across drop reasons.
    pub fn frames_dropped(&self) -> u64 {
        let o = &self.shared.netobs;
        o.drop_blocked.get()
            + o.drop_queue_full.get()
            + o.drop_no_link.get()
            + o.drop_write_error.get()
    }

    /// Inbound frames rejected (blocked peer or stale generation).
    pub fn frames_rejected(&self) -> u64 {
        self.shared.netobs.rejected.get()
    }

    /// Outbound frames dropped specifically to a full send queue. Clean
    /// tests assert this stays 0 so slow-consumer losses cannot leak
    /// silently from one test case into another's assertions.
    pub fn queue_full_drops(&self) -> u64 {
        self.shared.netobs.drop_queue_full.get()
    }

    /// Outbound frames actually written to a peer socket.
    pub fn frames_sent(&self) -> u64 {
        self.shared.netobs.sent.get()
    }

    /// Inbound frames decoded and handed to the node runtime.
    pub fn frames_received(&self) -> u64 {
        self.shared.netobs.recv.get()
    }

    /// The observability sink this transport records into.
    pub fn obs(&self) -> &Obs {
        self.shared.netobs.obs()
    }

    /// Stops every thread and closes every socket. Every spawned thread —
    /// the accept loop, the per-peer writers, and the per-connection
    /// readers — is joined with a bounded deadline; a thread that fails
    /// to exit in time is counted as leaked in the report rather than
    /// blocking shutdown forever.
    pub fn stop(&self) -> ShutdownReport {
        // ordering: SeqCst — the shutdown flag is a lone boolean with no
        // payload published under it; every daemon loop polls it with
        // SeqCst too, keeping the reasoning trivial, and none of these
        // sites are on the frame hot path.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for link in self.links.values() {
            if let Some(stream) = link.current.lock_clean().take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for (_, stream) in self.shared.inbound.lock_clean().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for stream in self.shared.subscribers.lock_clean().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Close *every* socket ever accepted: a reader still waiting for
        // its `Hello` holds a socket registered nowhere else, and it must
        // see EOF now or it would outlive this test.
        for stream in self.shared.accepted.lock_clean().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let mut pending: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock_clean());
        pending.extend(std::mem::take(&mut *self.shared.readers.lock_clean()));
        // Worst legitimate exit latency: a writer inside connect_timeout
        // (500 ms) or a backoff sleep (≤ `BACKOFF_MAX`); readers unblock at
        // socket close. 5 s is comfortably past all of it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut report = ShutdownReport::default();
        for h in pending {
            loop {
                if h.is_finished() {
                    let _ = h.join();
                    report.joined += 1;
                    break;
                }
                if Instant::now() >= deadline {
                    report.leaked += 1;
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        report
    }
}

impl Transport for TcpTransport {
    fn send(&self, to: ProcId, wire: Wire) {
        TcpTransport::send(self, to, wire);
    }

    fn push_delivery(&self, src: ProcId, a: &Value) {
        TcpTransport::push_delivery(self, src, a);
    }

    fn push_deliveries(&self, batch: &[(ProcId, Value)]) {
        TcpTransport::push_deliveries(self, batch);
    }

    fn push_view(&self, view: &View) {
        TcpTransport::push_view_group(self, 0, view);
    }
}

/// A [`Transport`] view of one group instance behind a shared
/// [`TcpTransport`]: the seam that lets an unmodified `NodeCore` run as
/// group `g` of a multi-group node. Sends are tagged with the group id,
/// deliveries and view pushes go out under it, and the transport's
/// reader dispatches inbound frames for the group to the channel
/// registered via [`TcpTransport::register_group`].
pub struct GroupEndpoint {
    group: u32,
    inner: Arc<TcpTransport>,
}

impl GroupEndpoint {
    /// Wraps `inner` as the endpoint of `group`. The caller registers
    /// the group's event channel separately.
    pub fn new(group: u32, inner: Arc<TcpTransport>) -> Self {
        GroupEndpoint { group, inner }
    }

    /// The group this endpoint speaks for.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// The shared transport underneath.
    pub fn transport(&self) -> &Arc<TcpTransport> {
        &self.inner
    }
}

impl Transport for GroupEndpoint {
    fn send(&self, to: ProcId, wire: Wire) {
        self.inner.send_group(self.group, to, wire);
    }

    fn push_delivery(&self, src: ProcId, a: &Value) {
        self.inner.push_deliveries_group(self.group, &[(src, a.clone())]);
    }

    fn push_deliveries(&self, batch: &[(ProcId, Value)]) {
        self.inner.push_deliveries_group(self.group, batch);
    }

    fn push_view(&self, view: &View) {
        self.inner.push_view_group(self.group, view);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // ordering: SeqCst — shutdown-flag poll; pairs with the SeqCst store
    // in stop(), no payload rides on it.
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                // Keep a closable clone of every accepted socket and the
                // reader's handle: `stop` closes the sockets (so readers
                // see EOF even before their `Hello`) and then joins the
                // threads with a bounded deadline.
                if let Ok(clone) = stream.try_clone() {
                    shared.accepted.lock_clean().push(clone);
                }
                let reader_shared = shared.clone();
                let handle = std::thread::spawn(move || reader_loop(stream, reader_shared));
                shared.readers.lock_clean().push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn reader_loop(stream: TcpStream, shared: Arc<Shared>) {
    // Buffer reads: coalesced writers put many frames into one segment,
    // and decoding them one read_exact at a time straight off the socket
    // would pay two syscalls per frame.
    let mut stream = io::BufReader::with_capacity(64 * 1024, stream);
    // The first frame must identify the connection.
    let hello = match read_frame(&mut stream) {
        Ok(Some(Frame::Hello { node, generation, kind })) => (node, generation, kind),
        _ => return,
    };
    let (node, generation, kind) = hello;
    match kind {
        HelloKind::Peer => {
            {
                let mut latest = shared.latest_gen.lock_clean();
                let e = latest.entry(node).or_insert(0);
                if generation < *e {
                    // A stale socket racing a newer incarnation: refuse it.
                    return;
                }
                *e = generation;
            }
            let Ok(clone) = stream.get_ref().try_clone() else { return };
            shared.inbound.lock_clean().push((node, clone));
            // Snapshot of the group route table; refreshed on a miss, so
            // the steady state pays no lock per frame.
            let mut routes = shared.routes.lock_clean().clone();
            loop {
                match read_frame(&mut stream) {
                    Ok(Some(frame @ (Frame::Peer(_) | Frame::PeerGroup { .. }))) => {
                        // ordering: SeqCst — shutdown-flag poll; pairs
                        // with the SeqCst store in stop().
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let (group, wire) = match frame {
                            Frame::Peer(wire) => (0, wire),
                            Frame::PeerGroup { group, wire } => (group, wire),
                            _ => return,
                        };
                        let stale = {
                            let latest = shared.latest_gen.lock_clean();
                            latest.get(&node).copied().unwrap_or(0) > generation
                        };
                        if stale || shared.is_blocked(node) {
                            shared.netobs.on_reject(node);
                            if stale {
                                return;
                            }
                            continue;
                        }
                        if !routes.contains_key(&group) {
                            routes = shared.routes.lock_clean().clone();
                        }
                        let Some(route) = routes.get(&group) else {
                            // No group instance registered here: drop the
                            // frame, keep the connection (other groups
                            // share it).
                            shared.netobs.on_reject(node);
                            continue;
                        };
                        shared.netobs.on_recv(node);
                        if route.send(Incoming::Wire { from: node, wire }).is_err() {
                            return;
                        }
                    }
                    Ok(Some(_)) | Ok(None) | Err(_) => return,
                }
            }
        }
        HelloKind::Client => {
            if let Ok(clone) = stream.get_ref().try_clone() {
                shared.subscribers.lock_clean().push(clone);
            }
            let mut routes = shared.routes.lock_clean().clone();
            loop {
                match read_frame(&mut stream) {
                    Ok(Some(
                        first @ (Frame::Submit(_)
                        | Frame::SubmitBatch(_)
                        | Frame::SubmitGroup { .. }),
                    )) => {
                        // ordering: SeqCst — shutdown-flag poll; pairs
                        // with the SeqCst store in stop().
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let (group, mut batch) = match first {
                            Frame::Submit(a) => (0, vec![a]),
                            Frame::SubmitBatch(b) => (0, b),
                            Frame::SubmitGroup { group, batch } => (group, batch),
                            _ => return,
                        };
                        // Coalesce the burst: whatever same-group submit
                        // frames the read buffer already holds ride in
                        // the same event. Only complete buffered frames
                        // are taken — a frame split across segments (or
                        // destined for another group) waits for the next
                        // loop pass rather than blocking the batch.
                        while batch.len() < 4096 {
                            match peek_buffered_submit(&mut stream, group) {
                                Some(mut more) => batch.append(&mut more),
                                None => break,
                            }
                        }
                        if !routes.contains_key(&group) {
                            routes = shared.routes.lock_clean().clone();
                        }
                        let Some(route) = routes.get(&group) else {
                            // Unroutable submission: drop it, keep the
                            // client connection alive.
                            continue;
                        };
                        if route.send(Incoming::Submit { batch }).is_err() {
                            return;
                        }
                    }
                    Ok(Some(_)) | Ok(None) | Err(_) => return,
                }
            }
        }
    }
}

/// Decodes one complete submit frame (`Submit`, `SubmitBatch`, or
/// `SubmitGroup`) addressed to `group` out of the reader's buffered
/// bytes without blocking. Returns `None` — leaving the buffer intact
/// for the caller's blocking `read_frame` — when the buffer holds no
/// complete frame, or when the next frame is not a submission for the
/// same group (batches must not merge across groups).
fn peek_buffered_submit(stream: &mut io::BufReader<TcpStream>, group: u32) -> Option<Vec<Value>> {
    use std::io::BufRead;
    let buf = stream.buffer();
    let hdr: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    let len = u32::from_be_bytes(hdr) as usize;
    let payload = buf.get(4..4usize.checked_add(len)?)?;
    match crate::codec::decode_payload(payload) {
        Ok(Frame::Submit(a)) if group == 0 => {
            stream.consume(4 + len);
            Some(vec![a])
        }
        Ok(Frame::SubmitBatch(b)) if group == 0 => {
            stream.consume(4 + len);
            Some(b)
        }
        Ok(Frame::SubmitGroup { group: g, batch }) if g == group => {
            stream.consume(4 + len);
            Some(batch)
        }
        _ => None,
    }
}

/// The on-wire shape of an outbound queue entry: group 0 rides the
/// untagged `Peer` frame (wire-compatible with single-group peers),
/// every other group is tagged.
fn peer_frame(group: u32, wire: Wire) -> Frame {
    if group == 0 {
        Frame::Peer(wire)
    } else {
        Frame::PeerGroup { group, wire }
    }
}

fn writer_loop(
    peer: ProcId,
    addr: SocketAddr,
    rx: QueueReceiver<(u32, Wire)>,
    shared: Arc<Shared>,
    stats: Arc<LinkStats>,
    current: Arc<Mutex<Option<TcpStream>>>,
    config: TransportConfig,
) {
    let mut backoff = BACKOFF_MIN;
    'reconnect: loop {
        // ordering: SeqCst — shutdown-flag poll; pairs with the SeqCst
        // store in stop().
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // While blocked, keep the queue draining so the sender never sees
        // ancient frames flushed after a heal.
        if shared.is_blocked(peer) {
            while rx.try_recv().is_ok() {
                shared.netobs.on_drop(peer, DropReason::Blocked);
            }
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        // ordering: Relaxed — monotone stat counter; only the advisory
        // connect_attempts() accessor reads it.
        stats.attempts.fetch_add(1, Ordering::Relaxed);
        let stream = match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
        };
        backoff = BACKOFF_MIN;
        let _ = stream.set_nodelay(true);
        // ordering: SeqCst — generations must be strictly monotone per
        // link: the peer's stale-frame filter compares the Hello value
        // against the highest generation it ever saw, so this counter
        // must never appear to move backwards from any thread's view.
        let generation =
            config.generation_base + stats.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let mut write_half = stream;
        if write_frame(
            &mut write_half,
            &Frame::Hello { node: shared.me, generation, kind: HelloKind::Peer },
        )
        .is_err()
        {
            std::thread::sleep(backoff);
            continue;
        }
        if let Ok(clone) = write_half.try_clone() {
            *current.lock_clean() = Some(clone);
        }
        // ordering: Relaxed — advisory status bit for connected(); link
        // correctness never depends on observing it promptly.
        stats.connected.store(true, Ordering::Relaxed);
        shared.netobs.on_link_up(peer, generation);
        let mut batch = FrameWriter::new();
        loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok((group, wire)) => {
                    if shared.is_blocked(peer) {
                        shared.netobs.on_drop(peer, DropReason::Blocked);
                        break;
                    }
                    if let Some(delay) = config.inject_send_delay {
                        // Fault injection is defined per frame — skip
                        // coalescing so every frame pays the delay.
                        std::thread::sleep(delay);
                        if write_frame(&mut write_half, &peer_frame(group, wire)).is_err() {
                            shared.netobs.on_drop(peer, DropReason::WriteError);
                            break;
                        }
                        shared.netobs.on_send(peer);
                        continue;
                    }
                    // Coalesce: drain whatever queued behind this frame
                    // (bounded) and flush the whole batch as one vectored
                    // write instead of one syscall per frame.
                    batch.clear();
                    batch.push(&peer_frame(group, wire));
                    while batch.len() < COALESCE_FRAMES && batch.payload_bytes() < COALESCE_BYTES {
                        match rx.try_recv() {
                            Ok((g, w)) => batch.push(&peer_frame(g, w)),
                            Err(_) => break,
                        }
                    }
                    if batch.write_to(&mut write_half).is_err() {
                        // The stream is torn mid-batch; count every frame
                        // of it lost (some bytes may have landed, but the
                        // peer's length-prefix framing discards the tail).
                        for _ in 0..batch.len() {
                            shared.netobs.on_drop(peer, DropReason::WriteError);
                        }
                        break;
                    }
                    for _ in 0..batch.len() {
                        shared.netobs.on_send(peer);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // ordering: SeqCst shutdown poll (pairs with stop());
                    // Relaxed for the advisory connected() status bit.
                    if shared.shutdown.load(Ordering::SeqCst) {
                        stats.connected.store(false, Ordering::Relaxed);
                        return;
                    }
                    if shared.is_blocked(peer) || current.lock_clean().is_none() {
                        // Severed or kicked out from under us.
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // ordering: Relaxed — advisory connected() status bit.
                    stats.connected.store(false, Ordering::Relaxed);
                    return;
                }
            }
        }
        // ordering: Relaxed — advisory connected() status bit.
        stats.connected.store(false, Ordering::Relaxed);
        shared.netobs.on_link_down(peer);
        let _ = write_half.shutdown(Shutdown::Both);
        *current.lock_clean() = None;
        continue 'reconnect;
    }
}
