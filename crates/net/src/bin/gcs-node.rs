//! `gcs-node`: one VS/TO node over TCP.
//!
//! ```text
//! gcs-node --id 0 --peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//!          [--delta 20] [--metrics-addr 127.0.0.1:9100]
//! ```
//!
//! `--peers` lists every node's address in id order; the node binds the
//! address at position `--id` and connects outward to the rest. `--delta`
//! is the protocol δ in milliseconds (π = 2nδ, μ = 4nδ). The node runs
//! until killed, printing a status line every two seconds; clients
//! connect to the same port with the client protocol (see `gcs-client`).
//!
//! With `--metrics-addr`, the node serves its counters and latency
//! histograms as Prometheus-style text on that address (plain
//! `TcpListener`, any request path) and runs the paper's `b`/`d` bound
//! monitors online over its own event trace, reporting violations in the
//! status line as they appear.

use gcs_model::{ProcId, Time};
use gcs_net::runtime::{Clock, HostedGroup, NetNode};
use gcs_net::transport::TransportConfig;
use gcs_obs::{BoundParams, Obs, StabilizationMonitor, TokenRoundMonitor};
use gcs_vsimpl::{DetectorPolicy, ProtoConfig};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::process::exit;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: gcs-node --id <i> --peers <addr0,addr1,...> [--delta <ms>] [--metrics-addr <addr>]\n\
         \n\
         --id                this node's index into the peer list\n\
         --peers             comma-separated listen addresses for every node, in id order\n\
         --delta             protocol delta in milliseconds (default 20)\n\
         --metrics-addr      serve Prometheus-style metrics text on this address\n\
         --adaptive-detector use the accrual failure detector (timeouts track measured\n\
         \u{20}                   token gaps; effective delta exported as detector_delta_hat_ms)"
    );
    exit(2)
}

fn main() {
    let mut id: Option<u32> = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut delta: Time = 20;
    let mut metrics_addr: Option<SocketAddr> = None;
    let mut adaptive = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--id" => {
                id = args.next().and_then(|s| s.parse().ok());
                if id.is_none() {
                    usage();
                }
            }
            "--peers" => {
                let Some(list) = args.next() else { usage() };
                for part in list.split(',') {
                    match part.trim().parse() {
                        Ok(a) => peers.push(a),
                        Err(_) => {
                            eprintln!("gcs-node: bad address {part:?}");
                            usage();
                        }
                    }
                }
            }
            "--delta" => {
                let Some(v) = args.next().and_then(|s| s.parse().ok()) else { usage() };
                delta = v;
            }
            "--metrics-addr" => {
                metrics_addr = args.next().and_then(|s| s.parse().ok());
                if metrics_addr.is_none() {
                    usage();
                }
            }
            "--adaptive-detector" => {
                adaptive = true;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gcs-node: unknown argument {other:?}");
                usage();
            }
        }
    }

    let Some(id) = id else { usage() };
    if peers.is_empty() || (id as usize) >= peers.len() {
        eprintln!("gcs-node: --id must index into --peers");
        usage();
    }

    let me = ProcId(id);
    let n = peers.len() as u32;
    let addrs: BTreeMap<ProcId, SocketAddr> =
        peers.iter().enumerate().map(|(i, &a)| (ProcId(i as u32), a)).collect();
    let listener = match TcpListener::bind(addrs[&me]) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("gcs-node: cannot bind {}: {e}", addrs[&me]);
            exit(1);
        }
    };

    let obs = Obs::new();
    let _metrics = metrics_addr.map(|addr| {
        let l = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("gcs-node: cannot bind metrics address {addr}: {e}");
                exit(1);
            }
        };
        match gcs_obs::serve(l, obs.registry.clone()) {
            Ok(s) => {
                println!("gcs-node {me}: metrics on http://{}", s.addr());
                s
            }
            Err(e) => {
                eprintln!("gcs-node: metrics server failed: {e}");
                exit(1);
            }
        }
    });

    let mut proto = ProtoConfig::standard(n, delta);
    if adaptive {
        proto.detector = DetectorPolicy::Adaptive;
    }
    // One ring: group 0, recording into the transport's sink.
    let ring = HostedGroup { proto, obs: None, stable: None };
    let node = match NetNode::start(
        me,
        listener,
        &addrs,
        TransportConfig::default(),
        Clock::new(),
        obs.clone(),
        BTreeMap::from([(0, ring)]),
    ) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("gcs-node: start failed: {e}");
            exit(1);
        }
    };

    // Online bound monitors over this node's own event stream. A
    // single-process view of a distributed run: view changes and
    // deliveries observed *here*, checked against the paper's b/d with
    // the configured parameters.
    let params = BoundParams::standard(n, delta as u64);
    let mut stab = StabilizationMonitor::new(params);
    let mut round = TokenRoundMonitor::new(params);
    let mut seen_seq = 0u64;
    let mut reported_stab = 0usize;
    let mut reported_round = 0usize;

    println!("gcs-node {me}: listening on {}, {} peers, delta {delta} ms", addrs[&me], n - 1);
    loop {
        std::thread::sleep(Duration::from_secs(2));
        let fresh = obs.trace.snapshot_since(seen_seq);
        if let Some(last) = fresh.last() {
            seen_seq = last.seq;
        }
        stab.feed_all(&fresh);
        round.feed_all(&fresh);
        for v in &stab.violations()[reported_stab..] {
            println!("gcs-node {me}: BOUND VIOLATION: {v}");
        }
        reported_stab = stab.violations().len();
        for v in &round.violations()[reported_round..] {
            println!("gcs-node {me}: BOUND VIOLATION: {v}");
        }
        reported_round = round.violations().len();

        let view = node
            .group(0)
            .and_then(|ring| ring.views().last().map(|v| v.to_string()))
            .unwrap_or_else(|| "<none>".into());
        println!(
            "gcs-node {me}: delivered {} | view {view} | sent {} recv {} dropped {} rejected {} | \
             b-checked {} d-checked {} violations {}",
            node.delivered_count(),
            node.transport().frames_sent(),
            node.transport().frames_received(),
            node.transport().frames_dropped(),
            node.transport().frames_rejected(),
            stab.checked(),
            round.checked(),
            reported_stab + reported_round,
        );
    }
}
