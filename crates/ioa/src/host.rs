//! The host seam: what an event-driven protocol state machine sees of
//! whatever runs it.
//!
//! A [`Process`] is written once against [`Context`] and hosted
//! unchanged by the discrete-event simulator (`gcs-netsim`), the
//! real-threads runtime (`gcs-net`) and the deterministic simulation
//! harness (`gcs-sim`); [`CollectedEffects`] is how a host (or a test)
//! lends a handler its context, and [`TraceEvent`] is the shape of the
//! [`crate::TimedTrace`] every host records for the checkers.

use gcs_model::{ProcId, Status, Subject, Time};
use std::fmt;

/// A simulated process: an event-driven state machine at one network
/// location.
///
/// Handlers run only while the process's failure status allows it; a good
/// process's handler runs exactly at the scheduled virtual time, which is
/// the paper's "a good process takes steps with no time delay after they
/// become enabled".
pub trait Process {
    /// The network message type.
    type Msg: Clone + fmt::Debug;
    /// The client-input type (submitted by the host).
    type Input: Clone + fmt::Debug;
    /// The trace-event type (recorded via [`Context::emit`]).
    type Event: Clone + fmt::Debug;

    /// This process's location.
    fn id(&self) -> ProcId;
    /// Called once at time 0.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Event>);
    /// Called when a message arrives.
    fn on_message(
        &mut self,
        from: ProcId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Event>,
    );
    /// Called when a timer set with [`Context::set_timer`] fires.
    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, Self::Msg, Self::Event>);
    /// Called when a scheduled client input arrives.
    fn on_input(&mut self, input: Self::Input, ctx: &mut Context<'_, Self::Msg, Self::Event>);
}

/// A recorded trace event: something a process emitted, or a
/// failure-status change.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent<E> {
    /// Emitted by a process via [`Context::emit`].
    App(E),
    /// A failure-status input action from the script.
    Fail {
        /// The location or directed pair.
        subject: Subject,
        /// The new status.
        status: Status,
    },
}

/// What a handler may do: read the clock, send messages, set timers, and
/// emit trace events. Effects are collected and applied by the host
/// when the handler returns.
pub struct Context<'a, M, E> {
    now: Time,
    sends: &'a mut Vec<(ProcId, M)>,
    timers: &'a mut Vec<(Time, u64)>,
    emits: &'a mut Vec<E>,
}

impl<M, E> Context<'_, M, E> {
    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to` (subject to the channel's failure status).
    /// Sending to oneself is allowed and goes through the same channel
    /// rules (self-links are good unless a script says otherwise).
    pub fn send(&mut self, to: ProcId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Sends `msg` to every processor in `set` (including the sender, if
    /// listed).
    pub fn multicast<'s>(&mut self, set: impl IntoIterator<Item = &'s ProcId>, msg: M)
    where
        M: Clone,
    {
        for &to in set {
            self.send(to, msg.clone());
        }
    }

    /// Schedules `on_timer(kind)` after `delay` ticks. Timers are not
    /// cancellable; handlers should ignore stale kinds.
    pub fn set_timer(&mut self, delay: Time, kind: u64) {
        self.timers.push((delay, kind));
    }

    /// Records a trace event at the current time.
    pub fn emit(&mut self, event: E) {
        self.emits.push(event);
    }
}

/// A collector for driving a [`Process`] handler directly in tests,
/// without a host: build one, borrow a [`Context`] from it, call the
/// handler, then inspect what it sent, scheduled, and emitted.
///
/// ```
/// use gcs_ioa::CollectedEffects;
/// let mut fx: CollectedEffects<String, u32> = CollectedEffects::new(5);
/// {
///     let mut ctx = fx.ctx();
///     ctx.send(gcs_model::ProcId(1), "hello".to_string());
///     ctx.set_timer(10, 7);
///     ctx.emit(42);
/// }
/// assert_eq!(fx.sends.len(), 1);
/// assert_eq!(fx.timers, vec![(10, 7)]);
/// assert_eq!(fx.emits, vec![42]);
/// ```
#[derive(Debug)]
pub struct CollectedEffects<M, E> {
    now: Time,
    /// Messages sent, in order.
    pub sends: Vec<(ProcId, M)>,
    /// Timers set: `(delay, kind)`.
    pub timers: Vec<(Time, u64)>,
    /// Events emitted.
    pub emits: Vec<E>,
}

impl<M, E> CollectedEffects<M, E> {
    /// Creates a collector whose contexts report virtual time `now`.
    pub fn new(now: Time) -> Self {
        CollectedEffects { now, sends: Vec::new(), timers: Vec::new(), emits: Vec::new() }
    }

    /// Advances the reported virtual time.
    pub fn set_now(&mut self, now: Time) {
        self.now = now;
    }

    /// Borrows a context that appends into this collector.
    pub fn ctx(&mut self) -> Context<'_, M, E> {
        Context {
            now: self.now,
            sends: &mut self.sends,
            timers: &mut self.timers,
            emits: &mut self.emits,
        }
    }

    /// Drains and returns the collected sends.
    pub fn take_sends(&mut self) -> Vec<(ProcId, M)> {
        std::mem::take(&mut self.sends)
    }
}
