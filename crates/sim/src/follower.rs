//! The follower-latency scenario: what a submission at a non-leader
//! costs on a quiet ring, in hops.
//!
//! Five nodes, no faults, every frame taking exactly δ, and a client on
//! node 2 submitting one value at a time, each after the previous one is
//! long done, at every phase against the leader's π heartbeat. Node 2
//! asks the leader for a round the moment it has something to send, so
//! a value's path is the same `2n + 3` hops whenever it is submitted:
//!
//! ```text
//! request 2→0                                    1 hop
//! round A  0→1→2 (collects) →3→4→0               n hops
//! round B  0→1→2→3→4 (everyone has it) →0        n hops   first `brcv` (node 4) at 2n
//! round C  0→1→2 (safe at the submitter)         2 hops   `brcv` at node 2 at 2n+3
//! ```
//!
//! Before the request existed round A was the heartbeat, and the same
//! value waited up to π for it. Section 8's `d = 2π + nδ` allows that
//! wait; [`run_follower`]`(false)` is the run that shows it is still all
//! the protocol *needs* — every request is lost there, and the heartbeat
//! delivers everything inside `d` with both bound monitors silent.
//!
//! (With the standard timing π is `2nδ`, so a hop count of `2n + 3` at
//! exactly δ a hop is already longer than π/2: "faster than half a
//! heartbeat" cannot be asked of a fixed-δ world. What can be, and is:
//! the latency does not depend on the phase against the heartbeat.)

use crate::scenario::{Scenario, ScheduledSubmit, SimConfig};
use crate::world::{run_traced, run_traced_without_requests, RunReport};
use gcs_model::Time;
use gcs_obs::{BoundParams, EventKind};
use std::collections::BTreeMap;

/// The submitting node: neither the leader nor next to it.
const CLIENT: u32 = 2;
const N: u32 = 5;
const DELTA_MS: Time = 10;
const SUBMITS: u32 = 40;

/// The scenario. Submissions are 17δ + 3 apart — more than one value's
/// whole path, and coprime to π, so forty of them visit every tenth of
/// the heartbeat period.
pub fn build() -> Scenario {
    let gap = 17 * DELTA_MS + 3;
    let submits: Vec<ScheduledSubmit> = (0..SUBMITS as u64)
        .map(|i| ScheduledSubmit { at: 500 + gap * i, node: CLIENT, value: i + 1 })
        .collect();
    let config = SimConfig {
        n: N,
        delta_ms: DELTA_MS,
        active_ms: 500 + gap * SUBMITS as u64,
        submits: SUBMITS,
        fault_budget: 0,
        fixed_delay: true,
        ..SimConfig::default()
    };
    Scenario { config, submits, faults: Vec::new() }
}

/// The scenario's bounds: `δ`, the hop budget `(2n + 3)δ`, and `d`.
pub fn bounds() -> (Time, Time, Time) {
    (DELTA_MS, (2 * N as Time + 3) * DELTA_MS, BoundParams::standard(N, DELTA_MS).d_ms())
}

/// One run of the scenario: the full checker report plus, per value,
/// how long after its `bcast` the submitter itself and the first node
/// anywhere saw the `brcv`, in virtual milliseconds.
#[derive(Clone, Debug)]
pub struct FollowerLatency {
    /// Checker, monitor and convergence findings of the run.
    pub report: RunReport,
    /// `bcast → brcv` at the submitting node, one per value.
    pub own_ms: Vec<Time>,
    /// `bcast →` first `brcv` anywhere (what the `d` monitor bounds).
    pub first_ms: Vec<Time>,
}

impl FollowerLatency {
    /// What is wrong with this run, if anything: a checker finding, a
    /// value the submitter never saw, or one slower than `bound_ms`.
    pub fn failures(&self, bound_ms: Time) -> Vec<String> {
        let mut out = self.report.violations.clone();
        let want = SUBMITS as usize;
        if self.own_ms.len() != want {
            out.push(format!("{} of {want} values came back to the submitter", self.own_ms.len()));
        }
        for (i, &ms) in self.own_ms.iter().enumerate() {
            if ms > bound_ms {
                out.push(format!("value {} took {ms} ms, over {bound_ms} ms", i + 1));
            }
        }
        out
    }
}

/// Runs the scenario with the members' round requests delivered
/// (`requests`) or every one of them lost.
pub fn run_follower(requests: bool) -> FollowerLatency {
    let sc = build();
    let (report, events) =
        if requests { run_traced(&sc) } else { run_traced_without_requests(&sc) };
    let mut sent: BTreeMap<u64, Time> = BTreeMap::new();
    let mut own: BTreeMap<u64, Time> = BTreeMap::new();
    let mut first: BTreeMap<u64, Time> = BTreeMap::new();
    for e in &events {
        match e.kind {
            EventKind::Bcast { value, .. } => {
                sent.insert(value, e.t_ms);
            }
            EventKind::Brcv { node, value, .. } => {
                let Some(&t0) = sent.get(&value) else { continue };
                first.entry(value).or_insert(e.t_ms - t0);
                if node == CLIENT {
                    own.entry(value).or_insert(e.t_ms - t0);
                }
            }
            _ => {}
        }
    }
    FollowerLatency {
        report,
        own_ms: own.into_values().collect(),
        first_ms: first.into_values().collect(),
    }
}
