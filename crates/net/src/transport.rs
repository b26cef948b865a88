//! The TCP peer transport: one accept loop per node, one reconnecting
//! writer thread per peer, bounded send queues, and connection-generation
//! numbering so frames from a stale socket can never be delivered into a
//! newer incarnation of a link. Generations start from the wall clock, so
//! a restarted endpoint outnumbers every earlier one of the same node.
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
//! the loss. Neither the writers nor the accept loop keep time: each
//! blocks until there is work, and these calls and `stop` wake the
//! writer they concern through its send queue.
//!
//! The node runtime itself only needs the tiny [`Transport`] trait —
//! enqueue a packet, push a client delivery — so the same `NodeCore`
//! runs unchanged over this TCP endpoint, one [`GroupEndpoint`] per
//! hosted group, or over the deterministic in-process transport of
//! `gcs-sim`.

use crate::codec::{
    buffered_payload, decode_payload, encode_deliveries_into, encode_payload_into, frame_into,
    read_frame, write_frame, Frame, FrameWriter, HelloKind,
};
use crate::queue::{self, QueueReceiver, QueueSender, RecvError, TrySendError};
// `MutexApi::lock_clean` locks a std mutex, recovering the guard from a
// poisoned one: every structure these mutexes guard is updated in single
// consistent steps, and one panicking thread must not cascade into
// killing the accept loop, every reader and every writer.
use gcs_mc::MutexApi;
use gcs_model::{ProcId, Value, View};
use gcs_obs::{Counter, DropReason, EventKind, FaultKind, Obs};
use gcs_vsimpl::Wire;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// What the node runtime needs from a transport — the seam between the
/// protocol stack and the wire. [`GroupEndpoint`], one group's view of a
/// [`TcpTransport`], is the deployable implementation; the deterministic
/// simulator (`gcs-sim`) provides an in-process one, so the exact same
/// node code runs under both.
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
    /// at a time; the TCP endpoint overrides it to send the whole batch
    /// as one frame, one write per client.
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

/// Most frames a writer thread coalesces into one write, even when the
/// queue is deep. Public because it also bounds the writer's in-flight
/// window — frames in the current batch are neither counted sent nor
/// dropped yet — which conservation-accounting tests need to know.
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

    /// Joins `h` if it finishes by `deadline`, else counts it leaked.
    fn join(&mut self, h: JoinHandle<()>, deadline: Instant) {
        loop {
            if h.is_finished() {
                let _ = h.join();
                self.joined += 1;
                return;
            }
            if Instant::now() >= deadline {
                self.leaked += 1;
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Transport tuning knobs.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Per-peer outbound queue depth; frames beyond it are dropped (the
    /// protocol recovers via its token-loss and probe timers).
    pub send_queue: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig { send_queue: 1024 }
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
struct LinkStats {
    /// Connection attempts (successful or not).
    attempts: AtomicU64,
    /// Current connection generation: the endpoint's start time in µs
    /// since the UNIX epoch, bumped on every established connection.
    generation: AtomicU64,
}

struct PeerLink {
    /// Outbound queue entries carry the destination group; the writer
    /// tags non-zero groups with [`Frame::PeerGroup`] on the wire. Its
    /// `wake` sends the writer back to its checks after a sever, kick,
    /// heal or stop.
    tx: QueueSender<(u32, Wire)>,
    stats: Arc<LinkStats>,
}

/// What a live socket of the endpoint serves.
#[derive(Debug, PartialEq, Eq)]
enum Role {
    /// Accepted; its `Hello` has not arrived yet.
    Pending,
    /// This node's writer's link to the peer.
    Outbound(ProcId),
    /// The peer's link into this node.
    Inbound(ProcId),
    /// A client: a target of view pushes, and of the deliveries of the
    /// groups it has submitted to. Its reader adds a group before it
    /// dispatches the first submission to it, so that submission's
    /// delivery cannot miss it.
    Client(Vec<u32>),
}

/// One entry of [`Shared::conns`].
struct Conn {
    role: Role,
    stream: Arc<TcpStream>,
    /// The thread reading an accepted socket; `None` for an outbound
    /// link, whose writer thread outlives its connections.
    reader: Option<JoinHandle<()>>,
}

/// What a client push writes, kept between pushes so their buffers are
/// reused: the target sockets and the one encoded frame they are sent.
#[derive(Default)]
struct ClientPush {
    targets: Vec<Arc<TcpStream>>,
    frame: Vec<u8>,
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
    /// One entry per live socket: outbound links, inbound peer links,
    /// clients, and accepted sockets still waiting for their `Hello`.
    /// A writer drops its link's entry when the link goes down, and
    /// `sever`/`kick` drop it first to tell the writer. An accepted
    /// socket's entry stays until its reader exits; the reader then
    /// drops it, closing the socket, and leaves its handle in `exited`.
    conns: Mutex<Vec<Conn>>,
    /// Readers that have dropped their own entry, not yet joined. Moved
    /// here under the `conns` lock, so `stop` finds every reader in one
    /// of the two; the next accept joins them too, which keeps this to
    /// the readers that exited since then.
    exited: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes client writes: two group instances may push at once,
    /// and their frames must not interleave on one socket. Holds the
    /// push's targets, copied out of `conns` so that a client that stops
    /// reading stalls other pushes but never `sever`, `kick` or accept.
    client_writes: Mutex<ClientPush>,
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

    /// Runs `f` on the entry of `stream`, if it is still in the table.
    fn with_conn<R>(&self, stream: &Arc<TcpStream>, f: impl FnOnce(&mut Conn) -> R) -> Option<R> {
        self.conns.lock_clean().iter_mut().find(|c| Arc::ptr_eq(&c.stream, stream)).map(f)
    }

    /// A reader's last act: drops its connection's entry, which closes
    /// the socket once the reader's own handle on it goes, and leaves
    /// the reader's join handle in `exited`.
    fn release(&self, stream: &Arc<TcpStream>) {
        let mut conns = self.conns.lock_clean();
        let Some(i) = conns.iter().position(|c| Arc::ptr_eq(&c.stream, stream)) else { return };
        if let Some(h) = conns.swap_remove(i).reader {
            self.exited.lock_clean().push(h);
        }
    }

    /// Joins the readers that have dropped their entries.
    fn reap(&self) {
        for h in std::mem::take(&mut *self.exited.lock_clean()) {
            let _ = h.join();
        }
    }
}

/// A node's TCP endpoint: an accept loop, per-peer reconnecting writers,
/// and an event channel consumed by the node runtime.
pub struct TcpTransport {
    shared: Arc<Shared>,
    links: BTreeMap<ProcId, PeerLink>,
    local_addr: SocketAddr,
    /// The accept loop, joined by `stop` once it has been woken.
    accept: Mutex<Option<JoinHandle<()>>>,
    /// A copy of the listener's descriptor, held only so that `stop` can
    /// free one for its wake-up connection when the process has run out.
    spare: Mutex<Option<TcpListener>>,
    /// The per-peer writers.
    writers: Mutex<Vec<JoinHandle<()>>>,
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
        // Peers keep the highest generation they have seen from this
        // node for as long as they live, so a restarted endpoint must
        // start above every earlier one: its start time does, with one
        // reading per endpoint (a clock before the epoch reads 0).
        let started_us =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros() as u64);
        // The accept loop blocks in `accept`; `stop` wakes it.
        listener.set_nonblocking(false)?;
        let spare = Mutex::new(Some(listener.try_clone()?));
        let shared = Arc::new(Shared {
            me,
            shutdown: AtomicBool::new(false),
            blocked: Mutex::new(BTreeSet::new()),
            latest_gen: Mutex::new(BTreeMap::new()),
            conns: Mutex::new(Vec::new()),
            exited: Mutex::new(Vec::new()),
            client_writes: Mutex::new(ClientPush::default()),
            routes: Mutex::new(BTreeMap::from([(0, events.clone())])),
            netobs: NetObs::new(obs, me),
        });
        // Accept loop. Inbound traffic reaches the node runtimes via the
        // group route table, seeded above with `events` as group 0.
        let accept = {
            let shared = shared.clone();
            let accept = move || accept_loop(listener, shared);
            std::thread::Builder::new().name("gcs-accept".into()).spawn(accept)?
        };

        // One writer per peer.
        let mut writers = Vec::new();
        let mut links = BTreeMap::new();
        for (&p, &addr) in peers {
            if p == me {
                continue;
            }
            let (tx, rx) = queue::bounded::<(u32, Wire), _>(config.send_queue);
            let stats = Arc::new(LinkStats {
                attempts: AtomicU64::new(0),
                generation: AtomicU64::new(started_us),
            });
            {
                let shared = shared.clone();
                let stats = stats.clone();
                let writer = move || writer_loop(p, addr, rx, shared, stats);
                writers.push(std::thread::Builder::new().name("gcs-writer".into()).spawn(writer)?);
            }
            links.insert(p, PeerLink { tx, stats });
        }

        Ok(Arc::new(TcpTransport {
            shared,
            links,
            local_addr,
            accept: Mutex::new(Some(accept)),
            spare,
            writers: Mutex::new(writers),
        }))
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

    /// Pushes a batch of deliveries from one group instance to the
    /// clients that have submitted to that group: the whole batch travels
    /// as one frame, encoded once, and lands on each client socket as a
    /// single write. Group 0 uses the untagged [`Frame::DeliverBatch`] so
    /// existing clients keep working; other groups are tagged
    /// [`Frame::DeliverGroup`].
    pub fn push_deliveries_group(&self, group: u32, batch: &[(ProcId, Value)]) {
        if batch.is_empty() {
            return;
        }
        let tag = (group != 0).then_some(group);
        self.push_to_clients(Some(group), |out| encode_deliveries_into(out, tag, batch));
    }

    /// Pushes a view-change notification for a group instance to every
    /// client, whatever it submits to — the shard-map refresh path for
    /// routers, which follow every group's views.
    pub fn push_view_group(&self, group: u32, view: &View) {
        let view = Frame::View { group, view: view.clone() };
        self.push_to_clients(None, |out| encode_payload_into(out, &view));
    }

    /// Writes the frame whose payload `encode` appends to every client
    /// that has submitted to `group` (to every client for `None`). With
    /// no such client nothing is encoded. A client whose write fails is
    /// shut down; its reader then exits and drops its entry.
    fn push_to_clients(&self, group: Option<u32>, encode: impl FnOnce(&mut Vec<u8>)) {
        let mut push = self.shared.client_writes.lock_clean();
        let ClientPush { targets, frame } = &mut *push;
        let conns = self.shared.conns.lock_clean();
        targets.extend(
            conns
                .iter()
                .filter(|c| match &c.role {
                    Role::Client(groups) => group.is_none_or(|g| groups.contains(&g)),
                    _ => false,
                })
                .map(|c| c.stream.clone()),
        );
        drop(conns);
        if targets.is_empty() {
            return;
        }
        frame.clear();
        frame_into(frame, encode);
        for stream in targets.drain(..) {
            if (&*stream).write_all(frame).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Emulates a network partition from this node to `p`: closes the live
    /// sockets and drops all traffic in both directions until
    /// [`TcpTransport::heal`].
    pub fn sever(&self, p: ProcId) {
        self.shared.netobs.on_fault(p, FaultKind::Sever);
        self.shared.blocked.lock_clean().insert(p);
        self.close_sockets(p);
    }

    /// Ends an emulated partition; the writer, woken, reconnects at once.
    pub fn heal(&self, p: ProcId) {
        self.shared.netobs.on_fault(p, FaultKind::Heal);
        self.shared.blocked.lock_clean().remove(&p);
        self.wake_writer(p);
    }

    /// Kills the live TCP connections to `p` without blocking the peer:
    /// in-flight frames are lost and the writer reconnects with backoff
    /// under a fresh connection generation.
    pub fn kick(&self, p: ProcId) {
        self.shared.netobs.on_fault(p, FaultKind::Kick);
        self.close_sockets(p);
    }

    /// Shuts down both links with `p`. The outbound entry goes at once,
    /// and the woken writer, finding it gone, reconnects; the inbound one
    /// stays until its reader has seen the EOF.
    fn close_sockets(&self, p: ProcId) {
        self.shared.conns.lock_clean().retain(|c| {
            if c.role == Role::Outbound(p) || c.role == Role::Inbound(p) {
                let _ = c.stream.shutdown(Shutdown::Both);
            }
            c.role != Role::Outbound(p)
        });
        self.wake_writer(p);
    }

    /// Sends `p`'s writer back to its checks (shutdown, blocked, its
    /// link's entry) once its queue is empty.
    fn wake_writer(&self, p: ProcId) {
        if let Some(link) = self.links.get(&p) {
            link.tx.wake();
        }
    }

    /// Whether the outbound link to `p` is currently established.
    pub fn connected(&self, p: ProcId) -> bool {
        self.shared.conns.lock_clean().iter().any(|c| c.role == Role::Outbound(p))
    }

    /// Connection attempts made toward `p` (reconnect/backoff activity).
    pub fn connect_attempts(&self, p: ProcId) -> u64 {
        // ordering: Relaxed — monotone stat counter, observational only.
        self.links.get(&p).map_or(0, |l| l.stats.attempts.load(Ordering::Relaxed))
    }

    /// The current outbound connection generation toward `p`: the
    /// endpoint's start time in µs plus the link's connections so far.
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
        // Closing every socket unblocks every reader (EOF) and a writer
        // stuck in a write; a wake returns a parked writer to the flag.
        for c in self.shared.conns.lock_clean().iter() {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        for &p in self.links.keys() {
            self.wake_writer(p);
        }
        // Worst legitimate exit latency: a writer inside connect_timeout
        // (500 ms) or a backoff sleep (≤ `BACKOFF_MAX`); readers unblock at
        // socket close. 5 s is comfortably past all of it.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut report = ShutdownReport::default();
        // The wake-up connection needs a descriptor: the spare is freed
        // for it, so an endpoint stops even when the process has run out.
        drop(self.spare.lock_clean().take());
        if let Some(accept) = self.accept.lock_clean().take() {
            self.wake_accept_loop(&accept, deadline);
            report.join(accept, deadline);
        }
        for h in std::mem::take(&mut *self.writers.lock_clean()) {
            report.join(h, deadline);
        }
        // The accept loop and the writers are gone, so the table only
        // shrinks now; close what an accept added meanwhile and join
        // every reader, those that have released their entries included.
        // A reader moves its handle to `exited` under the table lock, so
        // once the table is emptied every handle is in one of the two.
        for c in std::mem::take(&mut *self.shared.conns.lock_clean()) {
            let _ = c.stream.shutdown(Shutdown::Both);
            if let Some(h) = c.reader {
                report.join(h, deadline);
            }
        }
        for h in std::mem::take(&mut *self.shared.exited.lock_clean()) {
            report.join(h, deadline);
        }
        report
    }

    /// Returns the accept loop, blocked in `accept`, to the shutdown
    /// flag with one connection to the listener; a listener bound to
    /// every address is reached through the loopback one. A connect that
    /// fails (no descriptor, a timeout) is retried until the loop has
    /// exited or `deadline` passes: the readers of the sockets `stop`
    /// closed free descriptors as they exit.
    fn wake_accept_loop(&self, accept: &JoinHandle<()>, deadline: Instant) {
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        while !accept.is_finished() && Instant::now() < deadline {
            if TcpStream::connect_timeout(&wake, Duration::from_millis(500)).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
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

/// Serves the listener until `stop`: blocks in `accept`, which returns
/// for each new connection and for the one `stop` makes to wake it.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // ordering: SeqCst — shutdown-flag poll; pairs with the SeqCst
        // store in stop(), no payload rides on it.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.reap();
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let stream = Arc::new(stream);
                // Spawned under the table lock, so the entry is there
                // before its reader looks for it.
                let mut conns = shared.conns.lock_clean();
                let (socket, shared) = (stream.clone(), shared.clone());
                let serve = move || {
                    reader_loop(&socket, &shared);
                    shared.release(&socket);
                };
                // A reader that cannot be spawned drops the connection.
                let spawned = std::thread::Builder::new().name("gcs-reader".into()).spawn(serve);
                if let Ok(reader) = spawned {
                    conns.push(Conn { role: Role::Pending, stream, reader: Some(reader) });
                }
            }
            // A transient failure (EMFILE, ENOBUFS, a connection reset
            // before it was accepted): retry after a pause, so a
            // descriptor shortage does not spin; only the shutdown flag
            // ends the loop.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn reader_loop(socket: &Arc<TcpStream>, shared: &Shared) {
    // Buffer reads: coalesced writers put many frames into one segment,
    // and decoding them one read_exact at a time straight off the socket
    // would pay two syscalls per frame.
    let mut stream = io::BufReader::with_capacity(64 * 1024, &**socket);
    // The first frame must identify the connection.
    let Ok(Some(Frame::Hello { node, generation, kind })) = read_frame(&mut stream) else {
        return;
    };
    // Snapshot of the group route table; refreshed on a miss, so the
    // steady state pays no lock per frame.
    let mut routes = shared.routes.lock_clean().clone();
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
            shared.with_conn(socket, |c| c.role = Role::Inbound(node));
            loop {
                let (group, wire) = match read_frame(&mut stream) {
                    Ok(Some(Frame::Peer(wire))) => (0, wire),
                    Ok(Some(Frame::PeerGroup { group, wire })) => (group, wire),
                    _ => return,
                };
                // ordering: SeqCst — shutdown-flag poll; pairs with the
                // SeqCst store in stop().
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let stale =
                    shared.latest_gen.lock_clean().get(&node).is_some_and(|&g| g > generation);
                if stale || shared.is_blocked(node) {
                    shared.netobs.on_reject(node);
                    if stale {
                        return;
                    }
                    continue;
                }
                // No live instance of the group here: drop the frame, keep
                // the connection (other groups share it).
                if dispatch(shared, &mut routes, group, Incoming::Wire { from: node, wire }) {
                    shared.netobs.on_recv(node);
                } else {
                    shared.netobs.on_reject(node);
                }
            }
        }
        HelloKind::Client => {
            shared.with_conn(socket, |c| c.role = Role::Client(Vec::new()));
            // This reader's copy of its entry's groups: the table lock is
            // taken only the first time a group is seen.
            let mut subscribed: Vec<u32> = Vec::new();
            loop {
                let (group, mut batch) = match read_frame(&mut stream) {
                    Ok(Some(Frame::Submit(a))) => (0, vec![a]),
                    Ok(Some(Frame::SubmitBatch(b))) => (0, b),
                    Ok(Some(Frame::SubmitGroup { group, batch })) => (group, batch),
                    _ => return,
                };
                // ordering: SeqCst — shutdown-flag poll; pairs with the
                // SeqCst store in stop().
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Coalesce the burst: whatever same-group submit frames
                // the read buffer already holds ride in the same event.
                // Only complete buffered frames are taken — a frame split
                // across segments (or destined for another group) waits
                // for the next loop pass rather than blocking the batch.
                while batch.len() < 4096 {
                    match peek_buffered_submit(&mut stream, group) {
                        Some(mut more) => batch.append(&mut more),
                        None => break,
                    }
                }
                // Subscribe before the dispatch: the delivery this
                // submission leads to is pushed only to subscribers.
                if !subscribed.contains(&group) {
                    shared.with_conn(socket, |c| {
                        if let Role::Client(groups) = &mut c.role {
                            groups.push(group);
                        }
                    });
                    subscribed.push(group);
                }
                // An unroutable submission is dropped; the client
                // connection stays.
                dispatch(shared, &mut routes, group, Incoming::Submit { batch });
            }
        }
    }
}

/// Hands `ev` to the node runtime hosting `group`. On a miss, or when
/// that runtime's loop has stopped, the reader's route snapshot is
/// refreshed and the send tried once more; `false` if it still fails
/// (no live instance of the group behind this endpoint).
fn dispatch(
    shared: &Shared,
    routes: &mut BTreeMap<u32, Sender<Incoming>>,
    group: u32,
    ev: Incoming,
) -> bool {
    let ev = match routes.get(&group) {
        Some(route) => match route.send(ev) {
            Ok(()) => return true,
            Err(unsent) => unsent.0,
        },
        None => ev,
    };
    *routes = shared.routes.lock_clean().clone();
    routes.get(&group).is_some_and(|route| route.send(ev).is_ok())
}

/// Decodes one complete submit frame (`Submit`, `SubmitBatch`, or
/// `SubmitGroup`) addressed to `group` out of the reader's buffered
/// bytes without blocking. Returns `None` — leaving the buffer intact
/// for the caller's blocking `read_frame` — when the buffer holds no
/// complete frame, or when the next frame is not a submission for the
/// same group (batches must not merge across groups).
fn peek_buffered_submit(stream: &mut io::BufReader<&TcpStream>, group: u32) -> Option<Vec<Value>> {
    use std::io::BufRead;
    let payload = buffered_payload(stream.buffer())?;
    let frame_len = 4 + payload.len();
    let batch = match decode_payload(payload) {
        Ok(Frame::Submit(a)) if group == 0 => vec![a],
        Ok(Frame::SubmitBatch(b)) if group == 0 => b,
        Ok(Frame::SubmitGroup { group: g, batch }) if g == group => batch,
        _ => return None,
    };
    stream.consume(frame_len);
    Some(batch)
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
) {
    let mut backoff = BACKOFF_MIN;
    loop {
        // ordering: SeqCst — shutdown-flag poll; pairs with the SeqCst
        // store in stop().
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // While blocked, park on the queue and drop what arrives, so no
        // ancient frame is flushed after a heal; a wake re-checks.
        if shared.is_blocked(peer) {
            match rx.recv() {
                Ok(_) => shared.netobs.on_drop(peer, DropReason::Blocked),
                Err(RecvError::Woken) => {}
                Err(RecvError::Disconnected) => return,
            }
            continue;
        }
        // ordering: Relaxed — monotone stat counter; only the advisory
        // connect_attempts() accessor reads it.
        stats.attempts.fetch_add(1, Ordering::Relaxed);
        let stream = match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(s) => Arc::new(s),
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
        let generation = stats.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let hello = Frame::Hello { node: shared.me, generation, kind: HelloKind::Peer };
        if write_frame(&mut &*stream, &hello).is_err() {
            std::thread::sleep(backoff);
            continue;
        }
        shared.conns.lock_clean().push(Conn {
            role: Role::Outbound(peer),
            stream: stream.clone(),
            reader: None,
        });
        shared.netobs.on_link_up(peer, generation);
        let mut batch = FrameWriter::new();
        let reconnect = loop {
            match rx.recv() {
                Ok((group, wire)) => {
                    if shared.is_blocked(peer) {
                        shared.netobs.on_drop(peer, DropReason::Blocked);
                        break true;
                    }
                    // Coalesce: drain whatever queued behind this frame
                    // (bounded) and flush the whole batch as one write
                    // instead of one syscall per frame.
                    batch.clear();
                    batch.push(&peer_frame(group, wire));
                    while batch.len() < COALESCE_FRAMES && batch.payload_bytes() < COALESCE_BYTES {
                        let Some((g, w)) = rx.try_recv() else { break };
                        batch.push(&peer_frame(g, w));
                    }
                    if batch.write_to(&mut &*stream).is_err() {
                        // The stream is torn mid-batch; count every frame
                        // of it lost (some bytes may have landed, but the
                        // peer's length-prefix framing discards the tail).
                        for _ in 0..batch.len() {
                            shared.netobs.on_drop(peer, DropReason::WriteError);
                        }
                        break true;
                    }
                    for _ in 0..batch.len() {
                        shared.netobs.on_send(peer);
                    }
                }
                Err(RecvError::Woken) => {
                    // ordering: SeqCst — shutdown-flag poll; pairs with
                    // the SeqCst store in stop().
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break false;
                    }
                    // Severed or kicked out from under us.
                    if shared.is_blocked(peer) || shared.with_conn(&stream, |_| ()).is_none() {
                        break true;
                    }
                }
                Err(RecvError::Disconnected) => break false,
            }
        };
        shared.conns.lock_clean().retain(|c| !Arc::ptr_eq(&c.stream, &stream));
        let _ = stream.shutdown(Shutdown::Both);
        if !reconnect {
            return;
        }
        shared.netobs.on_link_down(peer);
    }
}
