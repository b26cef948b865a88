//! # pgcs — a partitionable group communication service
//!
//! A complete, executable reproduction of *Specifying and Using a
//! Partitionable Group Communication Service* (Fekete, Lynch,
//! Shvartsman; PODC 1997 / ACM TOCS 2001): the `VS` and `TO`
//! specifications as executable I/O automata, the `VStoTO` algorithm with
//! its invariant suite and simulation relation checked at runtime, a
//! Cristian–Schmuck membership + token-ring implementation of VS over a
//! deterministic discrete-event network with the paper's good/bad/ugly
//! failure model, replicated-memory applications, and an experiment
//! harness regenerating every formal artifact and analytical bound.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`model`] — processors, views, labels, summaries, quorums, failures;
//! - [`ioa`] — the I/O automaton framework (schedulers, invariants,
//!   forward simulations, timed traces);
//! - [`spec`] — the paper's contribution: `TO-machine`, `VS-machine`,
//!   `VStoTO`, invariants, the simulation relation, property checkers;
//! - [`vsimpl`] — the Section 8 protocol (membership, token ring, timed
//!   `VStoTO`), a state machine independent of what hosts it;
//! - [`netsim`] — the discrete-event network simulator;
//! - [`net`] — the same stack over real TCP sockets: wire codec,
//!   reconnecting peer transport, node daemon, load client, loopback
//!   cluster harness;
//! - [`apps`] — replicated state machines and memories over TO;
//! - [`harness`] — the paper-experiment apparatus: the simulated
//!   [`harness::Stack`], the experiments (E1–E14) and their one front
//!   end, `exp_all`.
//!
//! ## Quickstart
//!
//! ```
//! use pgcs::harness::{Stack, StackConfig};
//! use pgcs::model::ProcId;
//!
//! // Three processors, channel delay δ = 5, deterministic seed.
//! let mut stack = Stack::new(StackConfig::standard(3, 5, 42));
//! let t0 = 4 * stack.config().proto.pi;
//! for i in 0..5u64 {
//!     stack.schedule_bcast(t0 + i * 10, ProcId((i % 3) as u32));
//! }
//! stack.run_until(t0 + 2_000);
//! // Every client delivered all five values in the same total order.
//! let d0 = stack.delivered(ProcId(0)).to_vec();
//! assert_eq!(d0.len(), 5);
//! assert_eq!(stack.delivered(ProcId(1)), &d0[..]);
//! assert_eq!(stack.delivered(ProcId(2)), &d0[..]);
//! ```

#![forbid(unsafe_code)]

pub use gcs_apps as apps;
pub use gcs_core as spec;
pub use gcs_harness as harness;
pub use gcs_ioa as ioa;
pub use gcs_model as model;
pub use gcs_net as net;
pub use gcs_netsim as netsim;
pub use gcs_sim as sim;
pub use gcs_vsimpl as vsimpl;
