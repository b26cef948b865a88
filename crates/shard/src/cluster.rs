//! The sharded face of the loopback cluster harness: a
//! [`ShardClusterConfig`] (member sets per group, per-group protocol
//! timers, the shard map it denotes) and [`ShardCluster`], which boots
//! [`gcs_net::LoopbackCluster`] with one labelled group per shard — each
//! with its own [`Obs`] so the b/d monitors see one ring's event stream —
//! and speaks for it group by group. Everything a cluster *does*
//! (binding, hosting, fault injection and its per-group recording,
//! crash/restart, trace merging) lives in `gcs_net::cluster`.

use crate::ShardMap;
use gcs_model::{ProcId, Time, Value, View};
use gcs_net::cluster::{ClusterTrace, GroupSpec, LoopbackCluster};
use gcs_net::transport::{ShutdownReport, TransportConfig};
use gcs_obs::Obs;
use gcs_vsimpl::ProtoConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// Sharded cluster parameters.
#[derive(Clone, Debug)]
pub struct ShardClusterConfig {
    /// Number of physical nodes.
    pub n: u32,
    /// Member sets per group (group id = index). Groups may overlap.
    pub groups: Vec<BTreeSet<ProcId>>,
    /// The protocol δ in milliseconds (per group: π = 2kδ, μ = 4kδ for
    /// a k-member group).
    pub delta_ms: Time,
    /// Transport knobs.
    pub transport: TransportConfig,
}

impl ShardClusterConfig {
    /// The ring topology the benchmark uses: `g` groups of
    /// `members_per_group` consecutive nodes, `group i = {i, i+1, …}
    /// mod n`. With `n = 5, g = 4, k = 3` this makes node 2 host three
    /// groups and lets a single group be partitioned by severing two
    /// link pairs.
    pub fn ring(n: u32, g: u32, members_per_group: u32, delta_ms: Time) -> ShardClusterConfig {
        let groups = (0..g)
            .map(|i| (0..members_per_group.min(n)).map(|j| ProcId((i + j) % n)).collect())
            .collect();
        ShardClusterConfig { n, groups, delta_ms, transport: TransportConfig::default() }
    }

    /// The initial shard map this configuration denotes.
    pub fn shard_map(&self) -> ShardMap {
        ShardMap::new(self.groups.clone())
    }

    /// The per-group protocol configuration: the group's member set is
    /// both the ambient set and P₀, with the standard timer scaling.
    pub fn proto(&self, g: usize) -> ProtoConfig {
        let members = &self.groups[g];
        let k = members.len() as u32;
        ProtoConfig {
            procs: members.clone(),
            p0: members.clone(),
            ..ProtoConfig::standard(k, self.delta_ms)
        }
    }
}

/// A running sharded loopback cluster.
pub struct ShardCluster {
    inner: LoopbackCluster,
    config: ShardClusterConfig,
}

impl ShardCluster {
    /// Boots `config.n` loopback nodes, each hosting the groups it
    /// belongs to. Each group gets a fresh [`Obs`] with the given trace
    /// capacity; the transports share one network sink.
    pub fn start(config: ShardClusterConfig, trace_capacity: usize) -> io::Result<ShardCluster> {
        let groups = (0..config.groups.len())
            .map(|g| GroupSpec {
                proto: config.proto(g),
                obs: Some(Obs::with_trace_capacity(trace_capacity)),
            })
            .collect();
        let inner =
            LoopbackCluster::start_groups(config.n, config.transport.clone(), Obs::new(), groups)?;
        Ok(ShardCluster { inner, config })
    }

    /// The configuration this cluster was started with.
    pub fn config(&self) -> &ShardClusterConfig {
        &self.config
    }

    /// The observability sink of group `g`.
    pub fn group_obs(&self, g: u32) -> &Obs {
        self.inner.group_obs(g)
    }

    /// The shared network (transport) observability sink.
    pub fn net_obs(&self) -> &Obs {
        self.inner.obs()
    }

    /// The bound address of node `p` (for external TCP clients).
    pub fn addr(&self, p: ProcId) -> SocketAddr {
        self.inner.addr(p)
    }

    /// Per-member delivered streams of group `g`.
    pub fn delivered(&self, g: u32) -> BTreeMap<ProcId, Vec<(ProcId, Value)>> {
        self.inner.delivered_in(g)
    }

    /// Per-member installed-view histories of group `g`.
    pub fn views(&self, g: u32) -> BTreeMap<ProcId, Vec<View>> {
        self.inner.views_in(g)
    }

    /// Blocks until every live member of group `g` has delivered at
    /// least `count` values, or the deadline passes.
    pub fn await_group_deliveries(&self, g: u32, count: usize, deadline: Duration) -> bool {
        self.inner.await_deliveries_in(g, count, deadline)
    }

    /// Severs the (p, q) link pair in both directions; the fault is
    /// recorded into every group containing both endpoints.
    pub fn sever_pair(&self, p: ProcId, q: ProcId) {
        self.inner.sever_pair(p, q);
    }

    /// Heals the (p, q) link pair.
    pub fn heal_pair(&self, p: ProcId, q: ProcId) {
        self.inner.heal_pair(p, q);
    }

    /// Stops every node; returns the merged per-group traces and the
    /// aggregated shutdown report.
    pub fn stop(self) -> (BTreeMap<u32, ClusterTrace>, ShutdownReport) {
        self.inner.stop_groups()
    }
}
