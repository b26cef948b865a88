//! The deterministic simulation world: the *real* `gcs-net` node runtime
//! ([`NodeCore`], hosting the unchanged `VsNode<TimedVsToTo>` protocol
//! stack) driven over an in-process transport with a virtual clock.
//!
//! One run is one single-threaded discrete-event loop. Every frame a
//! node sends is round-tripped through the real wire codec, assigned a
//! seeded delay of at most δ (so the paper's good-channel timing
//! assumption holds by construction), and delivered in per-link FIFO
//! order — the contract TCP gives the deployed transport. The fault
//! scheduler perturbs everything *around* that contract: component
//! partitions, short symmetric and asymmetric link mutes, killed
//! in-flight frames, node crash/restart with volatile-state loss, and
//! slow-consumer stalls that push back through the bounded link queues.
//!
//! After the horizon, the merged recording is fed to the `gcs-core`
//! VS/TO safety checkers ([`gcs_core::check_conformance`]) and the
//! shared observability stream to the `gcs-obs` b/d bound monitors; a
//! convergence check asserts every submitted value was delivered in one
//! agreed order once the schedule's disturbances are compensated.
//!
//! Determinism: one run = one thread, one manual [`Clock`], one seeded
//! [`ChaCha8Rng`]; the event heap breaks time ties by insertion
//! sequence; all shared state lives in ordered containers. The same
//! scenario therefore produces bit-identical reports on any machine and
//! under any `par_seeds` worker count.

use crate::scenario::{FaultOp, Scenario, SimConfig};
use gcs_core::check_conformance;
use gcs_model::{ProcId, Time, Value, FNV1A_OFFSET};
use gcs_net::{
    decode_payload, encode_payload, Clock, Frame, Incoming, NodeCore, Recorded, Transport,
};
use gcs_obs::{
    BoundParams, DropReason, EventKind, FaultKind, Obs, StabilizationMonitor, TokenRoundMonitor,
};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use gcs_vsimpl::{DetectorPolicy, ProtoConfig, StableState, TimedVsToTo, Wire};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Runaway guard: a run that processes this many events without reaching
/// its horizon is reported as a violation instead of spinning forever.
const MAX_STEPS: u64 = 5_000_000;

/// How long the world keeps running after the last scheduled activity
/// (submission or fault compensation): enough for a full membership
/// stabilization, a merge probe period, and two token-round bounds, so
/// every conforming run converges before its horizon.
pub fn settle_ms(cfg: &SimConfig) -> Time {
    let bp = BoundParams::standard(cfg.n, cfg.delta_ms);
    let base = 2 * bp.b_ms() + 2 * bp.d_ms() + bp.mu_ms;
    if cfg.adaptive_detector {
        // The accrual detector may stretch the token-loss deadline up to
        // its cap (6× the fixed deadline) after a hostile phase, so the
        // settle phase must cover correspondingly later detections.
        3 * base
    } else {
        base
    }
}

#[cfg(feature = "bug-hook")]
fn bug_active(cfg: &SimConfig) -> bool {
    cfg.bug_dup_token
}
#[cfg(not(feature = "bug-hook"))]
fn bug_active(_: &SimConfig) -> bool {
    false
}

/// The injected safety bug (`bug-hook` feature): the duplicated token
/// copy claims every member has received the whole message list — a
/// retransmission path that fabricates acknowledgments. The receiver's
/// safe prefix jumps past what slower members actually hold, so it
/// issues `safe` indications the VS specification does not enable.
#[cfg(feature = "bug-hook")]
fn corrupt_token_acks(bytes: &[u8]) -> Option<Vec<u8>> {
    match decode_payload(bytes) {
        Ok(Frame::Peer(Wire::Token(mut tok))) => {
            let full = tok.seq_start + tok.entries.len() as u64;
            for count in tok.delivered.values_mut() {
                *count = full;
            }
            Some(encode_payload(&Frame::Peer(Wire::Token(tok))))
        }
        _ => None,
    }
}

/// The outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The scenario seed.
    pub seed: u64,
    /// Every violation found: checker findings, monitor findings, codec
    /// failures, and convergence failures, each prefixed with its source.
    pub violations: Vec<String>,
    /// FNV-1a digest of the merged trace and the per-node delivery
    /// sequences — bit-identical across replays of the same scenario.
    pub digest: u64,
    /// Virtual length of the run.
    pub horizon_ms: Time,
    /// Merged recorded protocol events.
    pub events: usize,
    /// Frames accepted onto a link.
    pub frames_sent: u64,
    /// Frames dropped (blocked link, full queue, lost in flight).
    pub frames_dropped: u64,
    /// Duplicate frames injected by `Dup` operations.
    pub dups_injected: u64,
    /// Fault operations applied.
    pub faults_applied: usize,
    /// Views installed across all nodes (beyond the initial view).
    pub views_installed: usize,
    /// Client values delivered per node (minimum across nodes).
    pub delivered: usize,
    /// Total virtual time covered by fault spans (union of the
    /// scheduled disturbance intervals).
    pub disturbed_ms: Time,
    /// Values whose *first* delivery anywhere landed inside a
    /// disturbance interval — the availability measure: ops the service
    /// completed while the network was actively hostile.
    pub delivered_during_disturbance: usize,
}

impl RunReport {
    /// Whether the run was violation-free.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What the heap schedules.
enum Ev {
    /// A frame arriving at `to`. `dup` copies never touch the in-flight
    /// accounting; `stale` copies model a stale-connection frame and
    /// must be rejected.
    Deliver {
        from: ProcId,
        to: ProcId,
        bytes: Vec<u8>,
        epoch: u64,
        stale: bool,
        dup: bool,
        /// The frame's delay was stretched past δ by a slow/bimodal
        /// window; its arrival is re-recorded as a disturbance so the
        /// bound monitors' baseline spans the whole late flight.
        slowed: bool,
    },
    Submit {
        p: ProcId,
        value: u64,
    },
    Timer {
        p: ProcId,
    },
    Fault {
        idx: usize,
    },
    /// A delayed window-open (the later cycles of a `Flap`).
    Open {
        pairs: Vec<(u32, u32)>,
        rep: (u32, u32),
        dur: Time,
        kind: WinKind,
    },
    Heal {
        win: usize,
    },
    Restart {
        p: ProcId,
    },
    Resume {
        p: ProcId,
    },
}

struct Scheduled {
    t: Time,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Reversed (time, insertion seq) so `BinaryHeap` pops earliest first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.t.cmp(&self.t).then(other.seq.cmp(&self.seq))
    }
}

/// The [`Transport`] implementation the cores talk to: sends go to a
/// shared outbox the world drains after every core interaction.
struct SimEndpoint {
    id: ProcId,
    outbox: Rc<RefCell<Vec<(ProcId, ProcId, Wire)>>>,
}

impl Transport for SimEndpoint {
    fn send(&self, to: ProcId, wire: Wire) {
        self.outbox.borrow_mut().push((self.id, to, wire));
    }
    fn push_delivery(&self, _src: ProcId, _a: &Value) {}
}

/// One directed link's state.
#[derive(Default)]
struct Link {
    /// Frames currently on the wire (bounded by `send_queue`).
    inflight: usize,
    /// FIFO floor: no frame may be delivered before the previous one.
    next_fifo: Time,
    /// Bumped by kicks and crashes; in-flight frames with an older epoch
    /// are lost.
    epoch: u64,
    /// Duplicate the next frame as a stale copy (rejected on arrival).
    dup_armed: bool,
    /// Bug hook: duplicate the next Token frame as a *live* copy.
    dup_token_armed: bool,
}

/// A shared handle to one incarnation's accumulated output (the node
/// core keeps writing through its own clone).
type Handle<T> = Arc<Mutex<Vec<T>>>;

/// What a fault window does to the frames it matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WinKind {
    /// Frames are dropped (partition / sever semantics).
    Block,
    /// Delivery delays are stretched by the factor (one-way slowdown).
    Slow(u32),
    /// Every frame cluster-wide independently takes the slow mode
    /// (delay × factor) with the given percent probability.
    Bimodal { prob_pct: u32, factor: u32 },
}

/// One active fault window: the directed pairs it matches (empty =
/// every link, used by `Bimodal`), the representative pair recorded
/// with its fault/heal events, and what it does.
struct Window {
    pairs: Vec<(u32, u32)>,
    rep: (u32, u32),
    kind: WinKind,
}

/// One node slot across incarnations.
struct SimSlot {
    core: Option<NodeCore>,
    stable: Option<StableState<TimedVsToTo>>,
    next_wake: Option<Time>,
    stalled_until: Time,
    recorded: Vec<Handle<Recorded>>,
    delivered: Vec<Handle<(ProcId, Value)>>,
    views: Vec<Handle<gcs_model::View>>,
}

impl SimSlot {
    fn keep_handles(&mut self, core: &NodeCore) {
        self.recorded.push(core.recorded_handle());
        self.delivered.push(core.delivered_handle());
        self.views.push(core.views_handle());
    }

    fn all_delivered(&self) -> Vec<(ProcId, Value)> {
        self.delivered.iter().flat_map(|h| h.lock().expect("no panicking holder").clone()).collect()
    }

    fn all_views(&self) -> Vec<gcs_model::View> {
        self.views.iter().flat_map(|h| h.lock().expect("no panicking holder").clone()).collect()
    }

    fn all_recorded(&self) -> Vec<Recorded> {
        self.recorded.iter().flat_map(|h| h.lock().expect("no panicking holder").clone()).collect()
    }
}

struct World<'a> {
    sc: &'a Scenario,
    proto: ProtoConfig,
    clock: Arc<Clock>,
    obs: Obs,
    rng: ChaCha8Rng,
    heap: BinaryHeap<Scheduled>,
    hseq: u64,
    now: Time,
    horizon: Time,
    slots: Vec<SimSlot>,
    endpoints: Vec<Rc<SimEndpoint>>,
    outbox: Rc<RefCell<Vec<(ProcId, ProcId, Wire)>>>,
    links: Vec<Link>,
    /// Active fault windows (blocked or slowed pair sets).
    windows: Vec<Option<Window>>,
    violations: Vec<String>,
    frames_sent: u64,
    frames_dropped: u64,
    dups_injected: u64,
    faults_applied: usize,
    /// See [`run_traced_without_requests`].
    lose_requests: bool,
}

/// Runs one scenario to completion and reports.
pub fn run(sc: &Scenario) -> RunReport {
    run_traced(sc).0
}

/// Like [`run`], but also returns the full observability event stream
/// (faults, view changes, sends/drops/rejects, client interface events)
/// for timeline debugging of a failing seed.
pub fn run_traced(sc: &Scenario) -> (RunReport, Vec<gcs_obs::ObsEvent>) {
    let (report, events, _) = World::new(sc).run();
    (report, events)
}

/// Like [`run_traced`], but every *round request* — the `round: 0`
/// token frame a member with pending sends addresses to the leader —
/// vanishes at the sender, silently: no drop or fault event, so the
/// bound monitors excuse nothing. A request is only a hint, and this is
/// the run that holds the protocol to it: with every hint lost, the π
/// heartbeat alone must still meet `d`.
pub fn run_traced_without_requests(sc: &Scenario) -> (RunReport, Vec<gcs_obs::ObsEvent>) {
    let mut world = World::new(sc);
    world.lose_requests = true;
    let (report, events, _) = world.run();
    (report, events)
}

/// Like [`run`], but also returns each node's final delivered stream
/// (across incarnations, in its local delivery order) so application
/// layers — e.g. the sharded key-value store's per-key consistency
/// checker — can be replayed over what the simulated run delivered.
pub fn run_with_deliveries(sc: &Scenario) -> (RunReport, Vec<Vec<(ProcId, Value)>>) {
    let (report, _, delivered) = World::new(sc).run();
    (report, delivered)
}

impl<'a> World<'a> {
    fn new(sc: &'a Scenario) -> World<'a> {
        let cfg = &sc.config;
        let n = cfg.n as usize;
        let outbox: Rc<RefCell<Vec<(ProcId, ProcId, Wire)>>> = Rc::new(RefCell::new(Vec::new()));
        let endpoints = (0..n)
            .map(|i| Rc::new(SimEndpoint { id: ProcId(i as u32), outbox: outbox.clone() }))
            .collect();
        let mut proto = ProtoConfig::standard(cfg.n, cfg.delta_ms);
        if cfg.adaptive_detector {
            proto.detector = DetectorPolicy::Adaptive;
        }
        World {
            sc,
            proto,
            clock: Clock::manual(),
            obs: Obs::with_manual_clock(1 << 20),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0dd5_eed0_f00d_cafe),
            heap: BinaryHeap::new(),
            hseq: 0,
            now: 0,
            horizon: sc.horizon_ms(),
            slots: (0..n)
                .map(|_| SimSlot {
                    core: None,
                    stable: None,
                    next_wake: None,
                    stalled_until: 0,
                    recorded: Vec::new(),
                    delivered: Vec::new(),
                    views: Vec::new(),
                })
                .collect(),
            endpoints,
            outbox,
            links: (0..n * n).map(|_| Link::default()).collect(),
            windows: Vec::new(),
            violations: Vec::new(),
            frames_sent: 0,
            frames_dropped: 0,
            dups_injected: 0,
            faults_applied: 0,
            lose_requests: false,
        }
    }

    fn push(&mut self, t: Time, ev: Ev) {
        let seq = self.hseq;
        self.hseq += 1;
        self.heap.push(Scheduled { t, seq, ev });
    }

    fn link_idx(&self, from: ProcId, to: ProcId) -> usize {
        from.index() * self.sc.config.n as usize + to.index()
    }

    fn blocked(&self, from: ProcId, to: ProcId) -> bool {
        let pair = (from.0, to.0);
        self.windows.iter().flatten().any(|w| w.kind == WinKind::Block && w.pairs.contains(&pair))
    }

    /// The delay multiplier the active slow/bimodal windows impose on a
    /// frame sent `from → to` right now. Draws the bimodal coin per
    /// frame (deterministically, from the world RNG).
    fn stretch_factor(&mut self, from: ProcId, to: ProcId) -> u64 {
        let pair = (from.0, to.0);
        let mut stretch: u64 = 1;
        let mut bimodal: Option<(u32, u32)> = None;
        for w in self.windows.iter().flatten() {
            match w.kind {
                WinKind::Block => {}
                WinKind::Slow(factor) => {
                    if w.pairs.contains(&pair) {
                        stretch = stretch.max(factor as u64);
                    }
                }
                WinKind::Bimodal { prob_pct, factor } => bimodal = Some((prob_pct, factor)),
            }
        }
        if let Some((prob_pct, factor)) = bimodal {
            if self.rng.gen_range(0..100u32) < prob_pct {
                stretch = stretch.max(factor as u64);
            }
        }
        stretch
    }

    fn stalled(&self, p: ProcId) -> bool {
        self.now < self.slots[p.index()].stalled_until
    }

    /// Drains the shared outbox: codec round-trip, link admission, delay
    /// assignment, duplicate injection.
    fn drain_sends(&mut self) {
        loop {
            let batch: Vec<(ProcId, ProcId, Wire)> = std::mem::take(&mut *self.outbox.borrow_mut());
            if batch.is_empty() {
                return;
            }
            for (from, to, wire) in batch {
                if self.lose_requests && matches!(&wire, Wire::Token(t) if t.round == 0) {
                    continue;
                }
                let delta = self.sc.config.delta_ms.max(1);
                if self.blocked(from, to) {
                    // A severed link manifests to the sender as its
                    // connection dying, exactly as the TCP transport
                    // records it — so the partition window counts as
                    // continuously disturbed until its heal.
                    self.obs.trace.record(EventKind::LinkDown { node: from.0, peer: to.0 });
                    self.drop_frame(from, to, DropReason::Blocked);
                    continue;
                }
                let li = self.link_idx(from, to);
                if self.links[li].inflight >= self.sc.config.send_queue {
                    self.drop_frame(from, to, DropReason::QueueFull);
                    continue;
                }
                let dup_live = bug_active(&self.sc.config)
                    && self.links[li].dup_token_armed
                    && matches!(wire, Wire::Token(_));
                let dup_stale = !dup_live && self.links[li].dup_armed;
                let bytes = encode_payload(&Frame::Peer(wire));
                let mut delay =
                    if self.sc.config.fixed_delay { delta } else { self.rng.gen_range(1..=delta) };
                let stretch = self.stretch_factor(from, to);
                let slowed = stretch > 1;
                if slowed {
                    // The δ assumption is being violated on purpose:
                    // record the late frame as a disturbance at launch
                    // (and again at arrival) so the b/d monitors treat
                    // the whole slow flight as a disturbed interval.
                    delay *= stretch;
                    self.record_fault(from.0, to.0, FaultKind::Slow);
                }
                let t_del = (self.now + delay).max(self.links[li].next_fifo);
                let link = &mut self.links[li];
                link.next_fifo = t_del;
                link.inflight += 1;
                let epoch = link.epoch;
                self.frames_sent += 1;
                self.obs.trace.record(EventKind::Send { from: from.0, to: to.0 });
                if dup_live || dup_stale {
                    let link = &mut self.links[li];
                    link.dup_armed = false;
                    if dup_live {
                        link.dup_token_armed = false;
                    }
                    self.dups_injected += 1;
                    let extra = if self.sc.config.fixed_delay {
                        delta
                    } else {
                        self.rng.gen_range(1..=delta)
                    };
                    #[cfg(feature = "bug-hook")]
                    let dup_bytes = if dup_live {
                        corrupt_token_acks(&bytes).unwrap_or_else(|| bytes.clone())
                    } else {
                        bytes.clone()
                    };
                    #[cfg(not(feature = "bug-hook"))]
                    let dup_bytes = bytes.clone();
                    self.push(
                        t_del + extra,
                        Ev::Deliver {
                            from,
                            to,
                            bytes: dup_bytes,
                            epoch,
                            stale: dup_stale,
                            dup: true,
                            slowed,
                        },
                    );
                }
                self.push(
                    t_del,
                    Ev::Deliver { from, to, bytes, epoch, stale: false, dup: false, slowed },
                );
            }
        }
    }

    fn drop_frame(&mut self, from: ProcId, to: ProcId, reason: DropReason) {
        self.frames_dropped += 1;
        self.obs.trace.record(EventKind::Drop { node: from.0, to: to.0, reason });
    }

    /// Re-arms `p`'s single pending wake-up event if its earliest timer
    /// deadline moved earlier than what is already scheduled.
    fn arm_timer(&mut self, p: ProcId) {
        let slot = &self.slots[p.index()];
        let Some(core) = &slot.core else { return };
        let Some(due) = core.next_timer_due() else { return };
        let due = due.max(self.now);
        if slot.next_wake.is_none_or(|w| due < w) {
            self.slots[p.index()].next_wake = Some(due);
            self.push(due, Ev::Timer { p });
        }
    }

    /// After any core interaction: route its sends, re-arm its timers.
    fn post(&mut self, p: ProcId) {
        self.drain_sends();
        self.arm_timer(p);
    }

    fn record_fault(&self, node: u32, peer: u32, kind: FaultKind) {
        self.obs.trace.record(EventKind::Fault { node, peer, kind });
    }

    /// Opens a blocked-pairs window and schedules its heal.
    fn open_window(&mut self, pairs: Vec<(u32, u32)>, rep: (u32, u32), dur: Time) {
        self.open_window_kind(pairs, rep, dur, WinKind::Block);
    }

    /// Opens a fault window of any kind and schedules its heal.
    fn open_window_kind(
        &mut self,
        pairs: Vec<(u32, u32)>,
        rep: (u32, u32),
        dur: Time,
        kind: WinKind,
    ) {
        let fk = match kind {
            WinKind::Block => FaultKind::Sever,
            WinKind::Slow(_) | WinKind::Bimodal { .. } => FaultKind::Slow,
        };
        self.record_fault(rep.0, rep.1, fk);
        let win = self.windows.len();
        self.windows.push(Some(Window { pairs, rep, kind }));
        self.push(self.now + dur.max(1), Ev::Heal { win });
    }

    /// Kills in-flight frames between `p` and `q` (both directions).
    fn cut_links(&mut self, p: ProcId, q: ProcId) {
        for (a, b) in [(p, q), (q, p)] {
            let li = self.link_idx(a, b);
            self.links[li].epoch += 1;
            self.links[li].inflight = 0;
        }
    }

    fn apply_fault(&mut self, op: &FaultOp) {
        self.faults_applied += 1;
        match op {
            FaultOp::Split { groups, dur_ms } => {
                let mut pairs = Vec::new();
                for (i, g) in groups.iter().enumerate() {
                    for h in groups.iter().skip(i + 1) {
                        for &a in g {
                            for &b in h {
                                pairs.push((a, b));
                                pairs.push((b, a));
                            }
                        }
                    }
                }
                let rep = (
                    groups.first().and_then(|g| g.first().copied()).unwrap_or(0),
                    groups.get(1).and_then(|g| g.first().copied()).unwrap_or(0),
                );
                self.open_window(pairs, rep, *dur_ms);
            }
            FaultOp::SeverPair { p, q, dur_ms } => {
                self.open_window(vec![(*p, *q), (*q, *p)], (*p, *q), *dur_ms);
            }
            FaultOp::SeverOneWay { p, q, dur_ms } => {
                self.open_window(vec![(*p, *q)], (*p, *q), *dur_ms);
            }
            FaultOp::Flap { p, q, period_ms, count } => {
                // One blocked window per down half-cycle; the up
                // half-cycles are simply the gaps between them. Cycle 0
                // opens now, the rest are scheduled.
                let pairs = vec![(*p, *q), (*q, *p)];
                let period = (*period_ms).max(1);
                for i in 0..(*count).max(1) as u64 {
                    if i == 0 {
                        self.open_window(pairs.clone(), (*p, *q), period);
                    } else {
                        self.push(
                            self.now + 2 * period * i,
                            Ev::Open {
                                pairs: pairs.clone(),
                                rep: (*p, *q),
                                dur: period,
                                kind: WinKind::Block,
                            },
                        );
                    }
                }
            }
            FaultOp::SlowOneWay { p, q, factor, dur_ms } => {
                self.open_window_kind(
                    vec![(*p, *q)],
                    (*p, *q),
                    *dur_ms,
                    WinKind::Slow((*factor).max(2)),
                );
            }
            FaultOp::Bimodal { prob_pct, factor, dur_ms } => {
                self.open_window_kind(
                    Vec::new(),
                    (0, 0),
                    *dur_ms,
                    WinKind::Bimodal { prob_pct: (*prob_pct).min(100), factor: (*factor).max(2) },
                );
            }
            FaultOp::Kick { p, q } => {
                self.record_fault(*p, *q, FaultKind::Kick);
                self.cut_links(ProcId(*p), ProcId(*q));
            }
            FaultOp::Crash { p, down_ms } => {
                let pid = ProcId(*p);
                let Some(core) = self.slots[pid.index()].core.take() else { return };
                self.record_fault(*p, *p, FaultKind::Crash);
                let slot = &mut self.slots[pid.index()];
                slot.stable = Some(core.stable_state());
                slot.next_wake = None;
                slot.stalled_until = 0;
                for q in 0..self.sc.config.n {
                    if q != *p {
                        self.cut_links(pid, ProcId(q));
                    }
                }
                self.push(self.now + (*down_ms).max(1), Ev::Restart { p: pid });
            }
            FaultOp::Stall { p, dur_ms } => {
                self.record_fault(*p, *p, FaultKind::Stall);
                let until = self.now + (*dur_ms).max(1);
                self.slots[ProcId(*p).index()].stalled_until = until;
                self.push(until, Ev::Resume { p: ProcId(*p) });
            }
            FaultOp::Dup { p, q } => {
                let li = self.link_idx(ProcId(*p), ProcId(*q));
                if bug_active(&self.sc.config) {
                    self.links[li].dup_token_armed = true;
                } else {
                    self.links[li].dup_armed = true;
                }
            }
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Deliver { from, to, bytes, epoch, stale, dup, slowed } => {
                if self.stalled(to) {
                    let until = self.slots[to.index()].stalled_until;
                    self.push(until, Ev::Deliver { from, to, bytes, epoch, stale, dup, slowed });
                    return;
                }
                if slowed {
                    // Close of the late flight recorded at launch (see
                    // `drain_sends`): the disturbance baseline must
                    // extend to this arrival.
                    self.record_fault(from.0, to.0, FaultKind::Slow);
                }
                let li = self.link_idx(from, to);
                let live_epoch = epoch == self.links[li].epoch;
                if !dup && live_epoch {
                    self.links[li].inflight = self.links[li].inflight.saturating_sub(1);
                }
                if !live_epoch {
                    // Lost with its connection (kick or crash cut the
                    // link while the frame was in flight).
                    self.drop_frame(from, to, DropReason::WriteError);
                    return;
                }
                if self.slots[to.index()].core.is_none() {
                    // Arrived at a crashed node. The sender's link is
                    // observably down right now — record it as such, so
                    // the bound monitors treat the whole down window as
                    // disturbed (a dead member *is* an ongoing network
                    // disturbance; the paper's b budget covers
                    // stabilization after disturbances end, and this
                    // one ends at the restart).
                    self.obs.trace.record(EventKind::LinkDown { node: from.0, peer: to.0 });
                    self.drop_frame(from, to, DropReason::WriteError);
                    return;
                }
                if self.blocked(from, to) {
                    // Severed while in flight: same observable link
                    // death as the send-side case above.
                    self.obs.trace.record(EventKind::LinkDown { node: from.0, peer: to.0 });
                    self.drop_frame(from, to, DropReason::Blocked);
                    return;
                }
                if stale {
                    // A stale-connection duplicate: the receiver's
                    // generation filter refuses it.
                    self.obs.trace.record(EventKind::Reject { node: to.0, from: from.0 });
                    return;
                }
                let wire = match decode_payload(&bytes) {
                    Ok(Frame::Peer(wire)) => wire,
                    Ok(other) => {
                        self.violations.push(format!("codec: peer frame decoded as {other:?}"));
                        return;
                    }
                    Err(e) => {
                        self.violations.push(format!("codec: decode failed: {e}"));
                        return;
                    }
                };
                self.obs.trace.record(EventKind::Recv { node: to.0, from: from.0 });
                let ep = self.endpoints[to.index()].clone();
                let core = self.slots[to.index()].core.as_mut().expect("checked above");
                core.handle(Incoming::Wire { from, wire }, &*ep);
                self.post(to);
            }
            Ev::Submit { p, value } => {
                if self.stalled(p) {
                    let until = self.slots[p.index()].stalled_until;
                    self.push(until, Ev::Submit { p, value });
                    return;
                }
                let ep = self.endpoints[p.index()].clone();
                let Some(core) = self.slots[p.index()].core.as_mut() else {
                    self.violations
                        .push(format!("schedule: submit of {value} aimed at crashed node {p}"));
                    return;
                };
                core.handle(Incoming::Submit { batch: vec![Value::from_u64(value)] }, &*ep);
                self.post(p);
            }
            Ev::Timer { p } => {
                if self.stalled(p) {
                    let until = self.slots[p.index()].stalled_until;
                    self.push(until, Ev::Timer { p });
                    return;
                }
                self.slots[p.index()].next_wake = None;
                let ep = self.endpoints[p.index()].clone();
                let Some(core) = self.slots[p.index()].core.as_mut() else { return };
                core.tick(&*ep);
                self.post(p);
            }
            Ev::Fault { idx } => {
                let op = self.sc.faults[idx].op.clone();
                self.apply_fault(&op);
            }
            Ev::Open { pairs, rep, dur, kind } => {
                self.open_window_kind(pairs, rep, dur, kind);
            }
            Ev::Heal { win } => {
                if let Some(w) = self.windows[win].take() {
                    self.record_fault(w.rep.0, w.rep.1, FaultKind::Heal);
                }
            }
            Ev::Restart { p } => {
                let slot = &mut self.slots[p.index()];
                let Some(stable) = slot.stable.take() else { return };
                self.record_fault(p.0, p.0, FaultKind::Restart);
                let mut core =
                    NodeCore::recover(p, self.proto.clone(), self.clock.clone(), &self.obs, stable);
                self.slots[p.index()].keep_handles(&core);
                let ep = self.endpoints[p.index()].clone();
                core.boot(&*ep);
                self.slots[p.index()].core = Some(core);
                self.post(p);
            }
            Ev::Resume { p } => {
                self.slots[p.index()].stalled_until = 0;
                self.record_fault(p.0, p.0, FaultKind::Resume);
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn run(mut self) -> (RunReport, Vec<gcs_obs::ObsEvent>, Vec<Vec<(ProcId, Value)>>) {
        // Boot every node at t = 0.
        for i in 0..self.sc.config.n as usize {
            let p = ProcId(i as u32);
            let mut core = NodeCore::new(p, self.proto.clone(), self.clock.clone(), &self.obs);
            self.slots[i].keep_handles(&core);
            let ep = self.endpoints[i].clone();
            core.boot(&*ep);
            self.slots[i].core = Some(core);
            self.post(p);
        }
        // Schedule the client and fault workload.
        for s in &self.sc.submits {
            let (t, p, v) = (s.at, ProcId(s.node), s.value);
            self.push(t, Ev::Submit { p, value: v });
        }
        for (idx, f) in self.sc.faults.iter().enumerate() {
            self.push(f.at, Ev::Fault { idx });
        }

        // The discrete-event loop.
        let mut steps: u64 = 0;
        while let Some(Scheduled { t, ev, .. }) = self.heap.pop() {
            if t > self.horizon {
                break;
            }
            steps += 1;
            if steps > MAX_STEPS {
                self.violations.push(format!("runaway: {MAX_STEPS} events before the horizon"));
                break;
            }
            self.now = self.now.max(t);
            self.clock.advance_to(self.now);
            self.obs.trace.set_now_ms(self.now);
            self.dispatch(ev);
        }

        self.finish()
    }

    #[allow(clippy::type_complexity)]
    fn finish(mut self) -> (RunReport, Vec<gcs_obs::ObsEvent>, Vec<Vec<(ProcId, Value)>>) {
        let cfg = &self.sc.config;
        let n = cfg.n;
        let p0 = ProcId::range(n);

        // Safety: the merged trace against both VS/TO runtime specs.
        let per_node: Vec<Vec<Recorded>> = self.slots.iter().map(|s| s.all_recorded()).collect();
        let merged = gcs_net::merge_recordings(&per_node);
        let conf = check_conformance(&vs_actions(&merged), &to_obs(&merged).untimed(), &p0);
        self.violations.extend(conf.violations());

        // Timing: the b/d bound monitors over the observability stream.
        if self.obs.trace.evicted() > 0 {
            self.violations.push(format!(
                "obs: trace ring evicted {} events (capacity too small for the run)",
                self.obs.trace.evicted()
            ));
        }
        let events = self.obs.trace.snapshot();
        let bp = BoundParams::standard(n, cfg.delta_ms);
        let mut stab = StabilizationMonitor::new(bp);
        stab.feed_all(&events);
        let mut token = TokenRoundMonitor::new(bp);
        token.feed_all(&events);
        let views_installed =
            events.iter().filter(|e| matches!(e.kind, EventKind::ViewChange { .. })).count();
        for report in [stab.finish(), token.finish(self.horizon)] {
            for v in &report.violations {
                self.violations.push(format!("monitor {}: {v}", report.name));
            }
        }

        // Convergence: after every fault is compensated and the settle
        // phase has passed, all nodes must have delivered all submitted
        // values in one agreed order and share a final full view.
        let delivered: Vec<Vec<(ProcId, Value)>> =
            self.slots.iter().map(|s| s.all_delivered()).collect();
        let want = self.sc.submits.len();
        for (i, d) in delivered.iter().enumerate() {
            if d.len() != want {
                self.violations.push(format!(
                    "convergence: node {i} delivered {} of {want} values by the horizon",
                    d.len()
                ));
            } else if *d != delivered[0] {
                self.violations
                    .push(format!("convergence: node {i} delivery order differs from node 0"));
            }
        }
        let finals: Vec<Option<gcs_model::View>> =
            self.slots.iter().map(|s| s.all_views().last().cloned()).collect();
        for (i, v) in finals.iter().enumerate() {
            match v {
                Some(v) if v.set.len() == n as usize && finals[0].as_ref() == Some(v) => {}
                Some(v) => self.violations.push(format!(
                    "convergence: node {i} final view {:?} (size {}) is not the shared full view",
                    v.id,
                    v.set.len()
                )),
                None => {
                    self.violations.push(format!("convergence: node {i} never installed a view"))
                }
            }
        }

        // Determinism digest over the merged protocol trace and the
        // delivery sequences.
        let mut digest = FNV1A_OFFSET;
        for (t, e) in merged.iter() {
            digest = fold_digest(digest, &t.to_le_bytes());
            digest = fold_digest(digest, format!("{e:?}").as_bytes());
        }
        for d in &delivered {
            for (src, v) in d {
                digest = fold_digest(digest, &u64::from(src.0).to_le_bytes());
                digest = fold_digest(digest, &v.as_u64().unwrap_or(0).to_le_bytes());
            }
        }

        // Availability: how much of the run the scheduled faults kept
        // disturbed, and how many values got their first delivery while
        // a disturbance was in force.
        let mut intervals: Vec<(Time, Time)> = self
            .sc
            .faults
            .iter()
            .map(|f| (f.at, f.at + f.op.span_ms()))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let mut disturbed_ms: Time = 0;
        let mut cursor: Time = 0;
        for &(a, b) in &intervals {
            let a = a.max(cursor);
            if b > a {
                disturbed_ms += b - a;
                cursor = b;
            }
        }
        let mut first_delivery: BTreeMap<u64, Time> = BTreeMap::new();
        for e in &events {
            if let EventKind::Brcv { value, .. } = e.kind {
                first_delivery.entry(value).or_insert(e.t_ms);
            }
        }
        let delivered_during_disturbance = first_delivery
            .values()
            .filter(|&&t| intervals.iter().any(|&(a, b)| t >= a && t <= b))
            .count();

        let report = RunReport {
            seed: cfg.seed,
            violations: self.violations,
            digest,
            horizon_ms: self.horizon,
            events: merged.len(),
            frames_sent: self.frames_sent,
            frames_dropped: self.frames_dropped,
            dups_injected: self.dups_injected,
            faults_applied: self.faults_applied,
            views_installed,
            delivered: delivered.iter().map(|d| d.len()).min().unwrap_or(0),
            disturbed_ms,
            delivered_during_disturbance,
        };
        (report, events, delivered)
    }
}

/// The run digest's byte fold: FNV-1a in shape, from the FNV offset
/// basis, but with the multiplier `2³² + 0x1b3` this digest has always
/// used rather than the FNV prime `2⁴⁰ + 0x1b3` — so it is *not*
/// [`gcs_model::fnv1a`], and switching would change every recorded
/// digest. Dependency-free and identical on every platform.
pub(crate) fn fold_digest(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3))
}
