//! `gcs-client`: a load-generating client for `gcs-node`.
//!
//! ```text
//! gcs-client --addr 127.0.0.1:7000 --ops 10000 [--window 32 | --rate 500] [--base 1]
//! ```
//!
//! Connects to one node, submits `--ops` values, watches the delivery
//! push stream, and prints throughput and a latency histogram. With
//! `--window` (default) the client is closed-loop; with `--rate` it is
//! open-loop at that many operations per second. Concurrent clients
//! against one cluster must use disjoint `--base` ranges.

use gcs_model::Value;
use gcs_net::load::{run_load, LoadConfig, LoadMode};
use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: gcs-client --addr <host:port> [--ops <n>] [--window <w> | --rate <r>]\n\
         \n\
         --addr    node to connect to\n\
         --ops     operations to submit (default 1000)\n\
         --window  closed-loop outstanding window (default 32)\n\
         --rate    open-loop offered rate, ops/s (overrides --window)\n\
         --base    first value in this client's range (default 1)\n\
         --warmup  untimed warm-up operations before sampling (default 0)\n\
         --idle    idle timeout in seconds before giving up (default 30)"
    );
    exit(2)
}

fn main() {
    let mut addr: Option<SocketAddr> = None;
    let mut ops: u64 = 1000;
    let mut window: usize = 32;
    let mut rate: Option<u64> = None;
    let mut base: u64 = 1;
    let mut warmup: u64 = 0;
    let mut idle_secs: u64 = 30;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("gcs-client: {what} needs a value");
                usage();
            }
        };
        match arg.as_str() {
            "--addr" => match take("--addr").parse() {
                Ok(a) => addr = Some(a),
                Err(_) => usage(),
            },
            "--ops" => ops = take("--ops").parse().unwrap_or_else(|_| usage()),
            "--window" => window = take("--window").parse().unwrap_or_else(|_| usage()),
            "--rate" => rate = Some(take("--rate").parse().unwrap_or_else(|_| usage())),
            "--base" => base = take("--base").parse().unwrap_or_else(|_| usage()),
            "--warmup" => warmup = take("--warmup").parse().unwrap_or_else(|_| usage()),
            "--idle" => idle_secs = take("--idle").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gcs-client: unknown argument {other:?}");
                usage();
            }
        }
    }

    let Some(addr) = addr else { usage() };
    let mode = match rate {
        Some(r) => LoadMode::Open { rate: r },
        None => LoadMode::Closed { window },
    };
    let cfg =
        LoadConfig { group: 0, ops, mode, idle_timeout: Duration::from_secs(idle_secs), warmup };

    println!("gcs-client: {addr}, {ops} ops, {mode:?}");
    let report = match run_load(addr, &cfg, |i| Value::from_u64(base + i)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gcs-client: {e}");
            exit(1);
        }
    };

    let h = &report.latency_us;
    println!(
        "submitted {} | delivered {} | {:.1} ops/s over {:?}",
        report.submitted,
        report.delivered,
        report.throughput_ops(),
        report.elapsed,
    );
    println!(
        "latency us: mean {} | p50 {} | p95 {} | p99 {} | max {}",
        h.mean(),
        h.percentile(50.0),
        h.percentile(95.0),
        h.percentile(99.0),
        h.max(),
    );
    if report.delivered < report.submitted {
        eprintln!(
            "gcs-client: {} operations not seen delivered",
            report.submitted - report.delivered
        );
        exit(1);
    }
}
