//! `gcs-shard`: one keyspace hash-partitioned across several independent
//! VS/TO group instances.
//!
//! The paper's service manages membership and ordering *within* one
//! group. Scaling a replicated data service beyond one ring is an
//! application of that service, not a change to it: this crate runs `G`
//! unchanged protocol instances side by side and splits the keyspace
//! among them, so a partition or crash disturbs only the groups whose
//! member sets it touches while the rest keep serving. Nothing in
//! `gcs-core`/`gcs-vsimpl` knows sharding exists — each group instance
//! is a complete, separately-checkable VS/TO deployment.
//!
//! The pieces:
//!
//! - [`map`] — [`ShardMap`]: key → owning group (static FNV-1a hash
//!   partition) and group → current member set (refreshed from pushed
//!   view-change notifications, version-stamped so staleness is
//!   observable).
//! - [`router`] — [`RouterCore`]: the client-side routing policy
//!   (preferred member per group, down-set, cyclic retry on stale maps,
//!   redirect on view change) as a pure state machine.
//! - [`cluster`] — [`ShardClusterConfig`] and [`ShardCluster`]: the
//!   sharded face of `gcs_net::LoopbackCluster`, which boots `n` nodes
//!   each hosting several [`gcs_net::NodeCore`] group instances behind
//!   **one** TCP transport (demultiplexed by the group tag in the wire
//!   codec), with per-group observability and group-aware fault
//!   injection.
//! - [`load`] — [`kv_values`]: the keyed KV command (`gcs_apps::KvCmd`)
//!   value source that points `gcs_net::run_load` at one group.
//!
//! `gcs-benchmark`'s `shard2_sat` workload measures a sharded
//! deployment; `tests/shard_cluster.rs` drives one through load and a
//! one-group partition/merge and feeds every group's trace through the
//! VS/TO checkers, the b/d monitors, and the per-key linearizability
//! checker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod load;
pub mod map;
pub mod router;

pub use cluster::{ShardCluster, ShardClusterConfig};
pub use load::{kv_values, plan_seeds};
pub use map::ShardMap;
pub use router::RouterCore;
