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
//! spawn and join through a cooperative scheduler:
//!
//! - **Exploration**: DFS over the decision tree with iterative
//!   preemption bounding (exhaust 0-preemption schedules, then 1, then
//!   2 — CHESS-style), plus seeded random sampling beyond the bound.
//! - **Replay**: every multi-option decision is one byte; the byte
//!   string is the schedule, every failure ships one, and
//!   [`Checker::replay`] reruns it deterministically.
//! - **Happens-before checking**: vector clocks over spawn/join,
//!   mutex hand-off, and release→acquire edges per the *declared*
//!   `Ordering`; weak loads may read stale-but-coherent stores (a
//!   scheduling decision); plain [`DataApi`] accesses are race-checked
//!   with file:line on both sides; an `Acquire` load that observes a
//!   non-`Release` store is reported as a vacuous acquire.
//!
//! See docs/CONCURRENCY.md for the memory model in prose, how to write
//! a model, and the table tying each ported structure's `// ordering:`
//! comments to its model.

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

pub use api::{AtomicI64Api, AtomicU64Api, CondvarApi, DataApi, JoinApi, MutexApi, Shims};
pub use checker::Checker;
pub use report::{Failure, FailureKind, Report, Site};
pub use sched::Schedule;
pub use shim_mc::{
    McAtomicI64, McAtomicU64, McCondvar, McData, McJoinHandle, McMutex, McMutexGuard, McShims,
};
pub use shim_std::{StdData, StdShims};

/// True while the calling thread is a model thread inside
/// [`Checker::check`] — lets shared test helpers branch.
pub fn in_model() -> bool {
    engine::in_model()
}
