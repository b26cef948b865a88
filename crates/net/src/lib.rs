//! `gcs-net`: the Section 8 stack over a real TCP transport.
//!
//! The paper's implementation sketch assumes a timed asynchronous
//! network: messages may be lost or delayed, and good channels deliver
//! within δ. Elsewhere in this repository that network is a
//! deterministic simulator (`gcs-netsim`, `gcs-sim`); this crate links
//! neither. It supplies the deployable event source — `std::net` TCP
//! sockets on a real host — and the one real-threads host of the
//! protocol (a [`gcs_ioa::Process`] driven through the host seam of
//! `gcs-ioa`), with nothing swapped but the transport, exactly the
//! layering the paper's Section 1 anticipates ("mapping of the abstract
//! algorithm to the target platform").
//!
//! The pieces:
//!
//! - [`codec`] — a hand-rolled, dependency-free binary encoding of the
//!   full [`gcs_vsimpl::Wire`] message set plus client frames:
//!   length-prefixed framing, a version byte, explicit enum tags, LEB128
//!   varints. Decoding is *total*: any byte string produces `Ok` or a
//!   [`codec::CodecError`], never a panic.
//! - [`transport`] — the [`transport::Transport`] trait (the seam the
//!   deterministic simulator plugs into) and its deployable
//!   implementation [`transport::TcpTransport`]: one accept loop,
//!   per-peer reconnecting writer threads with bounded queues and capped
//!   exponential backoff, connection-generation numbering so a stale
//!   socket can never deliver into a newer incarnation of a link, and
//!   link severing/healing to emulate partitions over real sockets.
//! - [`runtime`] — [`runtime::NodeCore`], the thread-free protocol half
//!   hosting the unchanged `VsNode<TimedVsToTo>` state machine over any
//!   transport (with stable-storage crash/recovery), and
//!   [`runtime::NetNode`], which hosts one or several group instances
//!   of it — one core-loop thread each — behind a single TCP endpoint,
//!   recording emitted traces with cluster-mergeable (time, sequence)
//!   stamps.
//! - [`cluster`] — a loopback harness that boots n nodes on ephemeral
//!   localhost ports, as one ring or as overlapping groups; integration
//!   tests drive traffic, cut links, crash and restart nodes, and feed
//!   each group's merged trace to the VS/TO safety checkers of
//!   `gcs-core`.
//! - [`load`] — an open/closed-loop load-generating client speaking the
//!   (group-tagged or untagged) client protocol over TCP, with
//!   latency/throughput histograms.
//!
//! The `gcs-node` and `gcs-client` binaries wrap [`runtime`] and
//! [`load`] for running a cluster by hand across terminals (or hosts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod load;
pub mod queue;
pub mod runtime;
pub mod transport;

pub use cluster::{ClusterConfig, ClusterTrace, GroupSpec, LoopbackCluster};
pub use codec::{
    decode_payload, encode_payload, read_frame, write_frame, CodecError, Frame, HelloKind,
    MAX_FRAME, WIRE_VERSION,
};
pub use load::{run_load, Histogram, LoadConfig, LoadMode, LoadReport};
pub use runtime::{
    merge_recordings, run_core_loop, Clock, GroupExit, GroupHandle, HostedGroup, NetNode, NodeCore,
    Recorded,
};
pub use transport::{
    GroupEndpoint, Incoming, ShutdownReport, TcpTransport, Transport, TransportConfig,
};
