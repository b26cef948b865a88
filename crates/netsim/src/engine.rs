//! The discrete-event engine.

use gcs_ioa::{CollectedEffects, Process, TimedTrace, TraceEvent};
use gcs_model::failure::FailureScript;
use gcs_model::{FailureMap, ProcId, Status, Subject, Time};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Network timing parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Minimum good-channel delay.
    pub delta_min: Time,
    /// Maximum good-channel delay (the paper's δ).
    pub delta: Time,
    /// Maximum delay an ugly channel or processor may add.
    pub ugly_max_delay: Time,
    /// Probability that an ugly channel drops a packet.
    pub ugly_drop_prob: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { delta_min: 1, delta: 5, ugly_max_delay: 50, ugly_drop_prob: 0.3 }
    }
}

impl NetConfig {
    /// A configuration with a fixed good-channel delay δ.
    pub fn with_delta(delta: Time) -> Self {
        NetConfig { delta_min: delta.max(1), delta: delta.max(1), ..Default::default() }
    }
}

#[derive(Clone, Debug)]
enum Payload<M, I> {
    Deliver { from: ProcId, msg: M },
    Timer { kind: u64 },
    Input { input: I },
    Start,
}

#[derive(Clone, Debug)]
struct QueuedEvent<M, I> {
    time: Time,
    seq: u64,
    to: ProcId,
    payload: Payload<M, I>,
}

impl<M, I> PartialEq for QueuedEvent<M, I> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M, I> Eq for QueuedEvent<M, I> {}
impl<M, I> PartialOrd for QueuedEvent<M, I> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M, I> Ord for QueuedEvent<M, I> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Events parked for an unreachable destination, per processor.
type Stash<M, I> = BTreeMap<ProcId, Vec<QueuedEvent<M, I>>>;

/// The deterministic discrete-event engine.
pub struct Engine<P: Process> {
    procs: BTreeMap<ProcId, P>,
    heap: BinaryHeap<Reverse<QueuedEvent<P::Msg, P::Input>>>,
    fail_heap: Vec<gcs_model::FailureEvent>, // sorted descending, popped from back
    stash: Stash<P::Msg, P::Input>,
    now: Time,
    seq: u64,
    failures: FailureMap,
    config: NetConfig,
    rng: ChaCha8Rng,
    trace: TimedTrace<TraceEvent<P::Event>>,
    stats: NetStats,
    /// Reused across dispatches: each handler borrows its context here.
    fx: CollectedEffects<P::Msg, P::Event>,
}

/// Network-level counters maintained by the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets accepted for delivery (routed with a delay).
    pub routed: u64,
    /// Packets dropped by bad or ugly channels.
    pub dropped: u64,
    /// Events stashed because the destination processor was bad.
    pub stashed: u64,
    /// Handler invocations performed.
    pub handled: u64,
}

impl<P: Process> Engine<P> {
    /// Creates an engine hosting `processes`, with network parameters
    /// `config` and a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if two processes share an id.
    pub fn new(processes: impl IntoIterator<Item = P>, config: NetConfig, seed: u64) -> Self {
        let mut procs = BTreeMap::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0;
        for p in processes {
            let id = p.id();
            assert!(procs.insert(id, p).is_none(), "duplicate process id {id}");
            heap.push(Reverse(QueuedEvent { time: 0, seq, to: id, payload: Payload::Start }));
            seq += 1;
        }
        Engine {
            procs,
            heap,
            fail_heap: Vec::new(),
            stash: BTreeMap::new(),
            now: 0,
            seq,
            failures: FailureMap::all_good(),
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            trace: TimedTrace::new(),
            stats: NetStats::default(),
            fx: CollectedEffects::new(0),
        }
    }

    /// Network-level counters for the run so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Loads a failure script; its events fire at their scheduled times
    /// and are recorded in the trace.
    pub fn load_failures(&mut self, script: &FailureScript) {
        let mut evs = script.sorted_events();
        evs.reverse();
        self.fail_heap = evs;
    }

    /// Schedules a client input for `proc` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past or `proc` unknown.
    pub fn schedule_input(&mut self, time: Time, proc: ProcId, input: P::Input) {
        assert!(time >= self.now, "input scheduled in the past");
        assert!(self.procs.contains_key(&proc), "unknown process {proc}");
        self.seq += 1;
        self.heap.push(Reverse(QueuedEvent {
            time,
            seq: self.seq,
            to: proc,
            payload: Payload::Input { input },
        }));
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The recorded timed trace.
    pub fn trace(&self) -> &TimedTrace<TraceEvent<P::Event>> {
        &self.trace
    }

    /// Read access to a process (e.g. to inspect final state in tests).
    pub fn process(&self, p: ProcId) -> &P {
        &self.procs[&p]
    }

    /// Runs the simulation until virtual time `t_end` (inclusive): all
    /// events with `time ≤ t_end` are processed. Returns the number of
    /// handler invocations performed.
    pub fn run_until(&mut self, t_end: Time) -> usize {
        let mut handled = 0;
        loop {
            // Interleave failure events with regular events by time;
            // failure events at equal times fire first (the status at time
            // t governs deliveries at time t).
            let next_fail = self.fail_heap.last().map(|e| e.time);
            let next_ev = self.heap.peek().map(|Reverse(e)| e.time);
            match (next_fail, next_ev) {
                (Some(tf), _) if tf <= t_end && next_ev.is_none_or(|te| tf <= te) => {
                    let ev = self.fail_heap.pop().expect("peeked");
                    self.advance_to(ev.time);
                    self.apply_failure(ev);
                }
                (_, Some(te)) if te <= t_end => {
                    let Reverse(ev) = self.heap.pop().expect("peeked");
                    self.advance_to(ev.time);
                    handled += self.dispatch(ev) as usize;
                }
                _ => break,
            }
        }
        self.advance_to(t_end);
        handled
    }

    fn advance_to(&mut self, t: Time) {
        debug_assert!(t >= self.now);
        self.now = t;
    }

    fn apply_failure(&mut self, ev: gcs_model::FailureEvent) {
        let before = self.failures.clone();
        self.failures.apply(&ev);
        self.trace.push(ev.time, TraceEvent::Fail { subject: ev.subject, status: ev.status });
        // A processor turning good again replays its stashed events now.
        if let Subject::Loc(p) = ev.subject {
            if before.loc(p) != Status::Good && ev.status == Status::Good {
                if let Some(stashed) = self.stash.remove(&p) {
                    for mut qe in stashed {
                        self.seq += 1;
                        qe.time = self.now;
                        qe.seq = self.seq;
                        self.heap.push(Reverse(qe));
                    }
                }
            }
        }
    }

    /// Returns whether a handler actually ran.
    fn dispatch(&mut self, ev: QueuedEvent<P::Msg, P::Input>) -> bool {
        let p = ev.to;
        match self.failures.loc(p) {
            Status::Bad => {
                // Frozen: hold the event until recovery.
                self.stats.stashed += 1;
                self.stash.entry(p).or_default().push(ev);
                return false;
            }
            Status::Ugly => {
                // Nondeterministic speed: postpone by a random amount
                // (with a small chance of handling now to avoid livelock
                // in infinitely-ugly configurations).
                if self.rng.gen_bool(0.5) {
                    let delay = self.rng.gen_range(1..=self.config.ugly_max_delay);
                    self.seq += 1;
                    let requeued = QueuedEvent { time: self.now + delay, seq: self.seq, ..ev };
                    self.heap.push(Reverse(requeued));
                    return false;
                }
            }
            Status::Good => {}
        }
        self.fx.set_now(self.now);
        {
            let mut ctx = self.fx.ctx();
            let proc = self.procs.get_mut(&p).expect("known process");
            match ev.payload {
                Payload::Start => proc.on_start(&mut ctx),
                Payload::Deliver { from, msg } => proc.on_message(from, msg, &mut ctx),
                Payload::Timer { kind } => proc.on_timer(kind, &mut ctx),
                Payload::Input { input } => proc.on_input(input, &mut ctx),
            }
        }
        for e in self.fx.emits.drain(..) {
            self.trace.push(self.now, TraceEvent::App(e));
        }
        for (delay, kind) in self.fx.timers.drain(..) {
            self.seq += 1;
            self.heap.push(Reverse(QueuedEvent {
                time: self.now + delay,
                seq: self.seq,
                to: p,
                payload: Payload::Timer { kind },
            }));
        }
        let mut sends = self.fx.take_sends();
        for (to, msg) in sends.drain(..) {
            self.route(p, to, msg);
        }
        self.fx.sends = sends; // hand the buffer back for the next dispatch
        self.stats.handled += 1;
        true
    }

    fn route(&mut self, from: ProcId, to: ProcId, msg: P::Msg) {
        if !self.procs.contains_key(&to) {
            return; // messages to unknown locations vanish
        }
        let status = if from == to { Status::Good } else { self.failures.link(from, to) };
        let (dmin, dmax) = (self.config.delta_min, self.config.delta);
        let delay = match status {
            Status::Good => {
                if dmin >= dmax {
                    dmax
                } else {
                    self.rng.gen_range(dmin..=dmax)
                }
            }
            Status::Bad => {
                self.stats.dropped += 1;
                return;
            }
            Status::Ugly => {
                if self.rng.gen_bool(self.config.ugly_drop_prob) {
                    self.stats.dropped += 1;
                    return;
                }
                self.rng.gen_range(1..=self.config.ugly_max_delay)
            }
        };
        self.stats.routed += 1;
        self.seq += 1;
        self.heap.push(Reverse(QueuedEvent {
            time: self.now + delay,
            seq: self.seq,
            to,
            payload: Payload::Deliver { from, msg },
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_ioa::Context;

    /// Echoes every message back; counts receipts; emits on timer.
    struct Echo {
        id: ProcId,
        received: Vec<(ProcId, u64)>,
    }

    impl Echo {
        fn new(i: u32) -> Self {
            Echo { id: ProcId(i), received: Vec::new() }
        }
    }

    impl Process for Echo {
        type Msg = u64;
        type Input = u64;
        type Event = (ProcId, u64);
        fn id(&self) -> ProcId {
            self.id
        }
        fn on_start(&mut self, _ctx: &mut Context<'_, u64, (ProcId, u64)>) {}
        fn on_message(
            &mut self,
            from: ProcId,
            msg: u64,
            ctx: &mut Context<'_, u64, (ProcId, u64)>,
        ) {
            self.received.push((from, msg));
            ctx.emit((from, msg));
        }
        fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, u64, (ProcId, u64)>) {
            ctx.emit((self.id, 1_000_000 + kind));
        }
        fn on_input(&mut self, input: u64, ctx: &mut Context<'_, u64, (ProcId, u64)>) {
            // Broadcast the input to everyone we know (just p0..p2 here).
            for i in 0..3 {
                ctx.send(ProcId(i), input);
            }
        }
    }

    fn engine(seed: u64) -> Engine<Echo> {
        Engine::new((0..3).map(Echo::new), NetConfig::default(), seed)
    }

    #[test]
    fn good_channels_deliver_within_delta() {
        let mut e = engine(1);
        e.schedule_input(10, ProcId(0), 7);
        e.run_until(10 + NetConfig::default().delta);
        for i in 0..3 {
            assert_eq!(e.process(ProcId(i)).received, vec![(ProcId(0), 7)]);
        }
    }

    #[test]
    fn bad_channels_drop() {
        let mut e = engine(1);
        let mut script = FailureScript::new();
        script.set_pair(0, ProcId(0), ProcId(1), Status::Bad);
        e.load_failures(&script);
        e.schedule_input(10, ProcId(0), 7);
        e.run_until(500);
        assert!(e.process(ProcId(1)).received.is_empty());
        assert_eq!(e.process(ProcId(2)).received.len(), 1);
    }

    #[test]
    fn bad_processor_freezes_and_replays_on_recovery() {
        let mut e = engine(1);
        let mut script = FailureScript::new();
        script.crash(5, ProcId(1)).recover(200, ProcId(1));
        e.load_failures(&script);
        e.schedule_input(10, ProcId(0), 7);
        e.run_until(100);
        assert!(e.process(ProcId(1)).received.is_empty(), "frozen while bad");
        e.run_until(300);
        assert_eq!(e.process(ProcId(1)).received, vec![(ProcId(0), 7)], "replayed on recovery");
        // The receipt must be timestamped at/after recovery.
        let t = e
            .trace()
            .events()
            .iter()
            .find(|ev| matches!(&ev.action, TraceEvent::App((p, 7)) if *p == ProcId(0)))
            .map(|ev| ev.time);
        // First emit is p0's own receipt (self-send) before the crash of p1;
        // find p1's by scanning all.
        let times: Vec<Time> = e
            .trace()
            .events()
            .iter()
            .filter(|ev| matches!(&ev.action, TraceEvent::App(_)))
            .map(|ev| ev.time)
            .collect();
        assert!(t.is_some());
        assert!(times.iter().any(|&t| t >= 200), "p1's receipt happens after recovery");
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let run = |seed| {
            let mut e = engine(seed);
            e.schedule_input(1, ProcId(0), 1);
            e.schedule_input(2, ProcId(1), 2);
            e.run_until(1000);
            format!("{:?}", e.trace())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn failure_events_appear_in_trace() {
        let mut e = engine(1);
        let mut script = FailureScript::new();
        script.crash(5, ProcId(2));
        e.load_failures(&script);
        e.run_until(10);
        assert!(e.trace().events().iter().any(|ev| matches!(
            ev.action,
            TraceEvent::Fail { subject: Subject::Loc(p), status: Status::Bad } if p == ProcId(2)
        )));
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        struct T {
            id: ProcId,
            fired: Vec<Time>,
        }
        impl Process for T {
            type Msg = ();
            type Input = ();
            type Event = ();
            fn id(&self) -> ProcId {
                self.id
            }
            fn on_start(&mut self, ctx: &mut Context<'_, (), ()>) {
                ctx.set_timer(10, 1);
                ctx.set_timer(25, 2);
            }
            fn on_message(&mut self, _: ProcId, _: (), _: &mut Context<'_, (), ()>) {}
            fn on_timer(&mut self, _k: u64, ctx: &mut Context<'_, (), ()>) {
                self.fired.push(ctx.now());
            }
            fn on_input(&mut self, _: (), _: &mut Context<'_, (), ()>) {}
        }
        let mut e = Engine::new(vec![T { id: ProcId(0), fired: vec![] }], NetConfig::default(), 0);
        e.run_until(100);
        assert_eq!(e.process(ProcId(0)).fired, vec![10, 25]);
    }

    #[test]
    fn ugly_channel_eventually_delivers_or_drops() {
        let mut e = engine(3);
        let mut script = FailureScript::new();
        script.set_pair(0, ProcId(0), ProcId(1), Status::Ugly);
        e.load_failures(&script);
        for i in 0..50 {
            e.schedule_input(10 + i, ProcId(0), i);
        }
        e.run_until(5000);
        let got = e.process(ProcId(1)).received.len();
        assert!(got > 0 && got < 50, "ugly channel should drop some, deliver some (got {got})");
    }
}
