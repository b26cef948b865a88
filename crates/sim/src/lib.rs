//! `gcs-sim`: FoundationDB-style deterministic simulation testing for
//! the real `gcs-net` protocol stack.
//!
//! The TCP deployment and this harness run the *same* node runtime —
//! [`gcs_net::NodeCore`], hosting the unchanged `VsNode<TimedVsToTo>`
//! protocol machine and the real wire codec. Only the transport differs:
//! instead of sockets and threads, a single-threaded discrete-event
//! world with a virtual clock delivers frames with seeded delays (≤ δ,
//! per-link FIFO — the contract TCP provides) while a fault scheduler
//! injects partitions, asymmetric link mutes, killed connections,
//! node crashes with volatile-state loss, and slow-consumer stalls.
//!
//! Every run is checked three ways:
//!
//! - **safety** — the merged recording must conform to the paper's
//!   VS/TO runtime specifications ([`gcs_core::check_conformance`]);
//! - **timing** — the observability stream must satisfy the b/d bounds
//!   of Theorems 8.1/8.2 ([`gcs_obs::StabilizationMonitor`],
//!   [`gcs_obs::TokenRoundMonitor`]), with fault events excusing
//!   disturbed intervals exactly as the theorems do;
//! - **convergence** — once the schedule's faults are all compensated
//!   and a settle phase has passed, every submitted value is delivered
//!   everywhere in one agreed order and the full view is re-installed.
//!
//! Runs are bit-for-bit deterministic in the scenario (seed + config),
//! which buys the two headline features: seed fan-out over thousands of
//! schedules ([`gcs_ioa::par_seeds`] — same results at any worker
//! count), and automatic minimization of a failing schedule to a
//! smallest-reproducing scenario file ([`shrink`]) that replays exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod follower;
pub mod hostile;
pub mod scenario;
pub mod shard;
pub mod shrink;
pub mod world;

pub use hostile::{build as build_hostile, run_pair, HostileKind, HostileOutcome, RegimeTotals};
pub use scenario::{FaultOp, Scenario, ScheduledFault, ScheduledSubmit, SimConfig};
pub use shard::{run_shard, ShardRunReport, ShardScenario};
pub use shrink::{shrink, ShrinkResult};
pub use world::{run, run_with_deliveries, settle_ms, RunReport};
