//! An I/O automaton framework in the style of Lynch–Tuttle (Section 2 of
//! the paper), specialized for executing and checking the specifications
//! and algorithms of this repository.
//!
//! The paper's formal devices map onto this crate as follows:
//!
//! - an *I/O automaton* (states, start states, signature, transitions) is a
//!   type implementing [`Automaton`]; nondeterminism is explicit — the
//!   automaton enumerates its enabled locally controlled actions and a
//!   scheduler (the [`Runner`]) resolves the choice with a seeded RNG;
//! - *input actions* arrive from an [`Environment`], which can also propose
//!   internal actions whose parameter space is unbounded (for example
//!   `createview(v)` in `VS-machine`, where the adversary picks `v`);
//! - an *execution* is recorded by the [`Runner`] as the sequence of actions
//!   it performed; a *trace* is its restriction to external actions
//!   ([`Execution::trace`]);
//! - *invariant assertions* are per-state predicates installed on the
//!   runner and evaluated after every step ([`Runner::add_invariant`]);
//! - a *forward simulation* (Section 6.2) is checked step by step with
//!   [`sim::ForwardSimulation`]: each concrete step must correspond to a
//!   sequence of abstract actions with the same external projection;
//! - *timed executions* (Section 7) are sequences of time-stamped actions;
//!   [`timed::TimedTrace`] provides the windows-and-stabilization analysis
//!   that the conditional performance properties need;
//! - the Section 8 implementation is an event-driven state machine
//!   *mapped onto* a platform: [`host`] is that seam ([`Process`] written
//!   against [`Context`]), shared by every host — simulator, TCP runtime,
//!   deterministic harness — so the protocol depends on none of them.
//!
//! # Example
//!
//! A two-state toggle automaton, run for a few steps under a seeded
//! scheduler while checking an invariant:
//!
//! ```
//! use gcs_ioa::{ActionKind, Automaton, NullEnvironment, Runner};
//!
//! struct Toggle;
//! impl Automaton for Toggle {
//!     type State = bool;
//!     type Action = bool; // the value we toggle to
//!     fn initial(&self) -> bool { false }
//!     fn enabled(&self, s: &bool) -> Vec<bool> { vec![!s] }
//!     fn is_enabled(&self, s: &bool, a: &bool) -> bool { a != s }
//!     fn apply(&self, s: &mut bool, a: &bool) { *s = *a; }
//!     fn kind(&self, _: &bool) -> ActionKind { ActionKind::Output }
//! }
//!
//! let mut runner = Runner::new(Toggle, NullEnvironment, 42);
//! runner.add_invariant("alternates", |s: &bool| { let _ = s; Ok(()) });
//! let exec = runner.run(10).expect("no invariant violation");
//! assert_eq!(exec.actions().len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod explore;
pub mod host;
pub mod par;
pub mod run;
pub mod sim;
pub mod timed;

pub use automaton::{ActionKind, Automaton, Environment, NullEnvironment};
pub use explore::{explore, ExploreLimits, ExploreStats};
pub use host::{CollectedEffects, Context, Process, TraceEvent};
pub use par::{par_seeds, par_seeds_with};
pub use run::{Execution, InvariantViolation, Runner};
pub use sim::{ForwardSimulation, SimulationError};
pub use timed::{TimedEvent, TimedTrace};
