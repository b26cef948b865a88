//! gcs-mc: a hand-rolled, loom-style concurrency model checker.
//!
//! The protocol layer of this repo is checked exhaustively (I/O
//! automata, 29 invariants, bounded exploration); this crate gives the
//! *memory-model* layer the same treatment. A structure becomes
//! generic over the [`Shims`] trait family instead of naming
//! `std::sync` types; production code instantiates [`StdShims`]
//! (zero-cost `#[inline(always)]` delegation, gated by the benchmark's
//! saturating workloads) and model tests instantiate [`McShims`],
//! which routes every atomic access, mutex operation, condvar wait,
//! spawn and join through a cooperative scheduler. The surface is what
//! the ported structures call: relaxed `u64` cells, a mutex, a condvar,
//! spawn and join.
//!
//! - **Exploration**: DFS over the decision tree with iterative
//!   preemption bounding (exhaust 0-preemption schedules, then 1, then
//!   2 — CHESS-style).
//! - **Replay**: every multi-option decision is one byte; the byte
//!   string is the schedule, every failure ships one, and
//!   [`Checker::replay`] reruns it deterministically.
//! - **Weak reads under happens-before**: vector clocks over
//!   spawn/join and mutex hand-off bound which stores a relaxed load
//!   may read; among the stale-but-coherent rest, which one it reads
//!   is a scheduling decision. Findings are model panics, deadlocks
//!   (with the blocking file:line of each thread) and runaway models.
//!
//! See docs/CONCURRENCY.md for the memory model in prose, how to write
//! a model, and the table tying each ported structure to its models.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod api;
mod checker;
mod clock;
mod engine;
mod report;
mod sched;
mod shim_mc;
mod shim_std;

pub use api::{AtomicU64Api, CondvarApi, JoinApi, MutexApi, Shims};
pub use checker::Checker;
pub use report::{Failure, FailureKind, Report, Site};
pub use sched::Schedule;
pub use shim_mc::{McAtomicU64, McCondvar, McJoinHandle, McMutex, McMutexGuard, McShims};
pub use shim_std::StdShims;
