//! A deterministic discrete-event network simulator implementing the
//! timed asynchronous failure model of the paper (Sections 3.2, 7, 8).
//!
//! The simulator provides exactly the environment the paper's conditional
//! properties quantify over:
//!
//! - while a processor's failure status is **good**, it takes enabled
//!   steps immediately (its event handlers run at the scheduled virtual
//!   time, and anything a handler sends or schedules happens with no
//!   processing delay);
//! - while it is **bad**, it takes no locally controlled steps: events
//!   destined for it are *stashed*, and replayed in order when it turns
//!   good again (processors "do not crash with a loss of state" — a bad
//!   interval is an arbitrarily long delay);
//! - while it is **ugly**, each of its events is postponed by a random
//!   amount;
//! - a **good** channel delivers every packet within δ of sending; a
//!   **bad** channel delivers nothing; an **ugly** channel may drop a
//!   packet or deliver it after an arbitrary (bounded, configurable)
//!   delay.
//!
//! Failure statuses evolve according to a [`gcs_model::failure::FailureScript`]; each change
//! is also recorded into the simulation's timed trace, which is what the
//! property checkers of `gcs-core` consume.
//!
//! What a simulated process is ([`Process`], [`Context`],
//! [`CollectedEffects`], [`TraceEvent`]) is defined in `gcs_ioa::host`
//! and re-exported here: the protocol and the TCP runtime are written
//! against that seam and never link this crate, which serves the
//! paper-experiment apparatus (`gcs-harness`) only.
//!
//! All randomness is drawn from a single seeded ChaCha8 stream and the
//! event queue breaks time ties deterministically, so a run is a pure
//! function of `(processes, scripts, seed)`.
//!
//! # Example
//!
//! A two-process ping-pong over a lossy network:
//!
//! ```
//! use gcs_netsim::{Context, Engine, NetConfig, Process};
//! use gcs_model::ProcId;
//!
//! struct Pinger { id: ProcId, peer: ProcId, pings: u32 }
//!
//! impl Process for Pinger {
//!     type Msg = u32;
//!     type Input = ();
//!     type Event = u32;
//!     fn id(&self) -> ProcId { self.id }
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
//!         if self.id == ProcId(0) { ctx.send(self.peer, 0); }
//!     }
//!     fn on_message(&mut self, _from: ProcId, n: u32, ctx: &mut Context<'_, u32, u32>) {
//!         ctx.emit(n);
//!         self.pings += 1;
//!         if n < 10 { ctx.send(self.peer, n + 1); }
//!     }
//!     fn on_timer(&mut self, _k: u64, _ctx: &mut Context<'_, u32, u32>) {}
//!     fn on_input(&mut self, _i: (), _ctx: &mut Context<'_, u32, u32>) {}
//! }
//!
//! let procs = vec![
//!     Pinger { id: ProcId(0), peer: ProcId(1), pings: 0 },
//!     Pinger { id: ProcId(1), peer: ProcId(0), pings: 0 },
//! ];
//! let mut engine = Engine::new(procs, NetConfig::default(), 42);
//! engine.run_until(1_000);
//! assert_eq!(engine.trace().len(), 11); // 0..=10 emitted
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub use engine::{Engine, NetConfig, NetStats};
// The host seam lives in `gcs-ioa` (the protocol and the TCP runtime use
// it without linking this simulator); re-exported so these names keep
// resolving to the same types for engine users.
pub use gcs_ioa::{CollectedEffects, Context, Process, TraceEvent};
