//! # gcs-obs — zero-dependency observability for the GCS stack
//!
//! Three pieces, all pure `std`:
//!
//! - [`metrics`]: a registry of atomic [`Counter`]s,
//!   [`Gauge`]s, and log-scale [`Histogram`]s with mergeable snapshots
//!   and Prometheus-style text rendering ([`Registry::render_text`]).
//! - [`trace`]: a bounded structured event ring under one lock
//!   ([`TraceBuf`]) with typed events for view changes, sends/receives,
//!   drops, reconnects, and fault injection.
//! - [`monitor`]: online monitors that replay the event stream against
//!   the paper's timing theorems — `b = 9δ + max{π + (n+3)δ, μ}` for
//!   membership stabilization and `d = 2π + nδ` for token-round
//!   delivery ([`StabilizationMonitor`], [`TokenRoundMonitor`]).
//! - [`expose`]: a plain-`TcpListener` text endpoint for scraping the
//!   registry ([`expose::serve`]).
//!
//! [`Obs`] bundles a registry and a trace ring behind one cheap
//! clonable handle; a cluster shares one `Obs` so every node's events
//! land on the same epoch and sequence stream.
//!
//! The concurrent structures ([`Registry`], [`Histogram`], [`TraceBuf`])
//! are generic over the [`gcs_mc::Shims`] sync surface. The default
//! (`StdShims`) monomorphizes to exactly the plain-`std` code it
//! replaced; instantiating with `McShims` runs the identical structure
//! under the gcs-mc model checker, which is how their lock protocols
//! are verified (crates/obs/tests/mc_*.rs, docs/
//! CONCURRENCY.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expose;
pub mod hist;
pub mod metrics;
pub mod monitor;
pub mod trace;

pub use expose::{fetch_text, serve, MetricsServer};
pub use hist::{HistSnapshot, Histogram};
pub use metrics::{Counter, Gauge, MetricKey, MetricValue, Registry, Snapshot};
pub use monitor::{BoundParams, MonitorReport, StabilizationMonitor, TokenRoundMonitor};
pub use trace::{DropReason, EventKind, FaultKind, ObsEvent, TraceBuf};

/// A registry plus a trace ring under one handle. Cloning shares both.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// The metrics registry.
    pub registry: Registry,
    /// The event-tracing ring.
    pub trace: TraceBuf,
}

impl Obs {
    /// An `Obs` with default-capacity tracing (65536 events).
    pub fn new() -> Self {
        Obs::default()
    }

    /// An `Obs` whose trace ring holds up to `capacity` events — use a
    /// generous capacity when a test needs the complete event record
    /// (check [`TraceBuf::evicted`] stays 0).
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Obs { registry: Registry::default(), trace: TraceBuf::with_capacity(capacity) }
    }

    /// An `Obs` whose trace ring runs on a manual (virtual) clock —
    /// the deterministic simulation harness advances it with
    /// [`TraceBuf::set_now_ms`] so the bound monitors consume
    /// virtual-time stamps.
    pub fn with_manual_clock(capacity: usize) -> Self {
        Obs { registry: Registry::default(), trace: TraceBuf::with_manual_clock(capacity) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_clones_share_state() {
        let obs = Obs::new();
        let other = obs.clone();
        other.registry.counter("x_total").inc();
        other.trace.record(EventKind::Bcast { node: 0, value: 1 });
        assert_eq!(obs.registry.counter("x_total").get(), 1);
        assert_eq!(obs.trace.len(), 1);
    }
}
