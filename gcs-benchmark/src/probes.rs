//! Layer probes: short single-purpose measurements of one layer through
//! its public functions. They do not depend on the workload; the traced
//! run of every workload reports them, from a child process of their
//! own so that neither memory nor leftover threads leak into the
//! workload's measurement.

use crate::deploy::Topology;
use crate::gen::{Payload, ValueStream};
use crate::mem::MemWorld;
use crate::stats::median;
use crate::workloads::{drive_inmem, DELTA_MS};
use gcs_core::msg::AppMsg;
use gcs_model::{Label, Majority, ProcId, Value, View, ViewId};
use gcs_net::codec::{decode_payload, encode_payload_into, Frame};
use gcs_net::{Incoming, TcpTransport, TransportConfig};
use gcs_shard::{RouterCore, ShardMap};
use gcs_vsimpl::timed_vstoto::{ClientEffects, VsClient};
use gcs_vsimpl::{TimedVsToTo, Token, TokenMsg, Wire};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much work the probes do: 1.0 for a real run, 0.02 for the smoke
/// test.
#[derive(Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    fn ops(self, full: u64) -> u64 {
        ((full as f64 * self.0) as u64).max(64)
    }
    fn secs(self, full: f64) -> Duration {
        Duration::from_secs_f64((full * self.0).max(0.05))
    }
}

/// Median over five timed batches of `f`, in ns per call.
fn time_ns(scale: Scale, iters: u64, mut f: impl FnMut()) -> f64 {
    let iters = scale.ops(iters);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// A mid-rotation token carrying `entries` freshly sequenced values of
/// `value_len` bytes each: what a member sees on the loaded ring.
fn loaded_token(entries: usize, value_len: usize) -> Wire {
    let view = View::new(ViewId::new(3, ProcId(0)), ProcId::range(5));
    let mut t = Token::new(&view);
    t.round = 42;
    t.seq_start = 10_000;
    t.acked = 9_000;
    for (p, d) in t.delivered.iter_mut() {
        *d = 9_500 + u64::from(p.0);
    }
    for i in 0..entries {
        let src = ProcId((i % 5) as u32);
        let mut bytes = (i as u64).to_be_bytes().to_vec();
        bytes.resize(value_len.max(8), 0xa5);
        t.entries.push(TokenMsg {
            src,
            mid: i as u64,
            msg: AppMsg::Val(Label::new(view.id, t.seq_start + i as u64, src), Value::from(bytes)),
        });
    }
    Wire::Token(Box::new(t))
}

fn codec(scale: Scale, out: &mut BTreeMap<&'static str, f64>) {
    let mut buf = Vec::with_capacity(1 << 20);
    for (entries, len, enc, dec, per) in [
        (
            256usize,
            8usize,
            "codec.token_encode_ns_per_entry",
            "codec.token_decode_ns_per_entry",
            256.0,
        ),
        (256, 1024, "codec.token_encode_ns_per_kib", "codec.token_decode_ns_per_kib", 256.0),
    ] {
        let frame = Frame::Peer(loaded_token(entries, len));
        let iters = if len > 8 { 400 } else { 4000 };
        out.insert(
            enc,
            time_ns(scale, iters, || {
                buf.clear();
                encode_payload_into(&mut buf, black_box(&frame));
                black_box(buf.len());
            }) / per,
        );
        buf.clear();
        encode_payload_into(&mut buf, &frame);
        out.insert(
            dec,
            time_ns(scale, iters, || {
                black_box(decode_payload(black_box(&buf)).expect("a frame this module encoded"));
            }) / per,
        );
    }
    // The client path: one SubmitBatch encoded, one DeliverBatch decoded.
    let values: Vec<Value> = (0..256u64).map(Value::from_u64).collect();
    let submit = Frame::SubmitBatch(values.clone());
    let mut deliver = Vec::new();
    encode_payload_into(
        &mut deliver,
        &Frame::DeliverBatch(values.into_iter().map(|v| (ProcId(0), v)).collect()),
    );
    out.insert(
        "codec.client_batch_ns_per_op",
        time_ns(scale, 4000, || {
            buf.clear();
            encode_payload_into(&mut buf, black_box(&submit));
            black_box(decode_payload(black_box(&deliver)).expect("a frame this module encoded"));
        }) / 256.0,
    );
}

/// One `TimedVsToTo` driven through `on_input → on_gprcv → on_safe`, as
/// a one-member group sees its own messages.
fn vstoto(scale: Scale, out: &mut BTreeMap<&'static str, f64>) {
    let me = ProcId(0);
    let p0 = ProcId::range(1);
    let mut layer = TimedVsToTo::new(me, &p0, Arc::new(Majority::new(1)));
    let mut next = 0u64;
    let mut eff = ClientEffects::default();
    let ns = time_ns(scale, 200_000, || {
        next += 1;
        layer.on_input(Value::from_u64(next), &mut eff);
        let sent = std::mem::take(&mut eff.gpsnd);
        for m in &sent {
            layer.on_gprcv(me, m, &mut eff);
        }
        for m in &sent {
            layer.on_safe(me, m, &mut eff);
        }
        black_box(eff.brcv.len());
        eff.brcv.clear();
    });
    out.insert("vstoto.ns_per_op", ns);
}

fn bare_transport(
    me: u32,
    listener: TcpListener,
    peers: &BTreeMap<ProcId, std::net::SocketAddr>,
) -> io::Result<(Arc<TcpTransport>, mpsc::Sender<Incoming>, mpsc::Receiver<Incoming>)> {
    let (tx, rx) = mpsc::channel();
    let t =
        TcpTransport::start(ProcId(me), listener, peers, TransportConfig::default(), tx.clone())?;
    Ok((t, tx, rx))
}

/// Tokens A → B → A between two bare `TcpTransport`s with no protocol
/// above them: `window` in flight, for `dur`. Returns tokens per second.
fn echo(token: &Wire, window: usize, dur: Duration) -> io::Result<f64> {
    let la = TcpListener::bind("127.0.0.1:0")?;
    let lb = TcpListener::bind("127.0.0.1:0")?;
    let peers: BTreeMap<ProcId, _> =
        [(ProcId(0), la.local_addr()?), (ProcId(1), lb.local_addr()?)].into_iter().collect();
    let (a, _a_tx, a_rx) = bare_transport(0, la, &peers)?;
    let (b, b_tx, b_rx) = bare_transport(1, lb, &peers)?;
    // B echoes whatever arrives.
    let echoer = {
        let b = b.clone();
        std::thread::Builder::new().name("bench-echo".into()).spawn(move || {
            while let Ok(ev) = b_rx.recv() {
                match ev {
                    Incoming::Wire { wire, .. } => b.send(ProcId(0), wire),
                    Incoming::Stop => return,
                    Incoming::Submit { .. } => {}
                }
            }
        })?
    };
    // Frames sent before the links are up are dropped, not queued: wait
    // for both directions, then keep `window` in flight.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !(a.connected(ProcId(1)) && b.connected(ProcId(0))) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..window {
        a.send(ProcId(1), token.clone());
    }
    let (mut count, start) = (0u64, Instant::now());
    let mut elapsed = Duration::ZERO;
    while elapsed < dur {
        match a_rx.recv_timeout(Duration::from_millis(200)) {
            Ok(Incoming::Wire { wire, .. }) => {
                count += 1;
                a.send(ProcId(1), wire);
            }
            Ok(_) => {}
            Err(_) => break,
        }
        elapsed = start.elapsed();
    }
    // The echoer holds its transport, which holds the channel's other
    // senders, so the channel never disconnects: tell it to stop.
    let _ = b_tx.send(Incoming::Stop);
    let _ = echoer.join();
    a.stop();
    b.stop();
    Ok(count as f64 / elapsed.as_secs_f64().max(1e-9))
}

fn transport(scale: Scale, out: &mut BTreeMap<&'static str, f64>) -> io::Result<()> {
    let dur = scale.secs(0.4);
    out.insert("transport.echo_frames_per_s", echo(&loaded_token(1, 8), 64, dur)?);
    out.insert("transport.echo_entries_per_s", echo(&loaded_token(256, 8), 8, dur)? * 256.0);
    // 256 KiB of values per token.
    out.insert(
        "transport.echo_mb_s",
        echo(&loaded_token(256, 1024), 4, dur)? * 256.0 * 1024.0 / 1e6,
    );
    Ok(())
}

fn router(scale: Scale, out: &mut BTreeMap<&'static str, f64>) {
    let map = ShardMap::new(Topology::shard_ring(5, 2, 3, DELTA_MS).groups);
    let mut router = RouterCore::new(map);
    let keys: Vec<String> = (0..64).map(|k| format!("k{k:03}")).collect();
    let mut i = 0;
    out.insert(
        "shard.router_target_ns",
        time_ns(scale, 400_000, || {
            i = (i + 1) % keys.len();
            black_box(router.target(black_box(&keys[i])));
        }),
    );
}

/// The exact counts: the in-memory world on a fixed number of
/// operations, with every wire encoded to be sized.
fn exact_counts(scale: Scale, seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let ops = scale.ops(100_000);
    let mut world = MemWorld::new(5, DELTA_MS, ProcId(0), false, true);
    let mut values = ValueStream::new(seed, 0, Payload::Id);
    let sent = drive_inmem(&mut world, ProcId(0), 1024, &mut values, &mut |sent| sent >= ops)
        .sent_ns
        .len()
        .max(1);
    let c = world.counts();
    out.insert("vsimpl.wires_per_op", c.wires as f64 / sent as f64);
    out.insert("vsimpl.entries_per_token", c.token_entries as f64 / c.tokens.max(1) as f64);
    out.insert("codec.wire_bytes_per_op", c.bytes as f64 / sent as f64);

    // The same world driven from a follower: virtual time now passes,
    // because the follower's submissions wait for the token.
    let ops = scale.ops(20_000);
    let mut world = MemWorld::new(5, DELTA_MS, ProcId(2), false, false);
    let mut values = ValueStream::new(seed, 0, Payload::Id);
    let sent = drive_inmem(&mut world, ProcId(2), 1024, &mut values, &mut |sent| sent >= ops)
        .sent_ns
        .len();
    out.insert(
        "vsimpl.virtual_ms_per_kop_follower",
        world.now_ms() as f64 * 1000.0 / sent.max(1) as f64,
    );
}

/// One partition and merge of the in-memory world after `history`
/// operations. Returns the wall time from the heal to the first
/// delivery in the merged view, and the encoded size of the
/// summary-bearing tokens the merge sent.
fn inmem_merge(history: u64, seed: u64) -> (f64, u64) {
    let client = ProcId(2);
    let mut world = MemWorld::new(5, DELTA_MS, client, false, true);
    let mut values = ValueStream::new(seed, 0, Payload::Id);
    drive_inmem(&mut world, client, 512, &mut values, &mut |sent| sent >= history);
    world.isolate(ProcId(0));
    // Let both sides time out and install their views.
    let until = world.now_ms() + 3_000;
    while world.now_ms() < until && world.fire_next_timer() {
        world.drain();
    }
    let before = world.counts().summary_bytes;
    world.heal(ProcId(0));
    let started = Instant::now();
    let until = world.now_ms() + 5_000;
    while world.view_sizes().iter().any(|s| *s != 5)
        && world.now_ms() < until
        && world.fire_next_timer()
    {
        world.drain();
    }
    // First delivery in the merged view.
    world.take_deliveries();
    world.submit(client, vec![values.next_value()]);
    let until = world.now_ms() + 5_000;
    loop {
        world.drain();
        if !world.take_deliveries().is_empty()
            || world.now_ms() >= until
            || !world.fire_next_timer()
        {
            break;
        }
    }
    (started.elapsed().as_secs_f64(), world.counts().summary_bytes - before)
}

fn state_exchange(scale: Scale, seed: u64, out: &mut BTreeMap<&'static str, f64>) {
    let h = scale.ops(5_000);
    let (small_s, small_bytes) = inmem_merge(h, seed);
    let (large_s, _) = inmem_merge(2 * h, seed);
    out.insert("vstoto.state_exchange_bytes", small_bytes as f64);
    out.insert("vstoto.merge_outage_growth", large_s / small_s.max(1e-9));
}

/// Runs every probe.
pub fn run_all(scale: Scale, seed: u64) -> io::Result<BTreeMap<&'static str, f64>> {
    let mut out = BTreeMap::new();
    codec(scale, &mut out);
    vstoto(scale, &mut out);
    router(scale, &mut out);
    exact_counts(scale, seed, &mut out);
    state_exchange(scale, seed, &mut out);
    transport(scale, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_repeat_bit_for_bit() {
        let run = |seed| {
            let mut out = BTreeMap::new();
            exact_counts(Scale(0.02), seed, &mut out);
            out
        };
        let (a, b) = (run(1), run(1));
        assert_eq!(a, b);
        for name in [
            "vsimpl.wires_per_op",
            "vsimpl.entries_per_token",
            "codec.wire_bytes_per_op",
            "vsimpl.virtual_ms_per_kop_follower",
        ] {
            assert!(a[name] > 0.0, "{name} = {}", a[name]);
        }
    }

    #[test]
    fn the_in_memory_world_partitions_and_merges() {
        let (secs, bytes) = inmem_merge(300, 1);
        assert!(secs > 0.0);
        assert!(bytes > 0, "a merge exchanges state");
    }

    #[test]
    fn echo_moves_tokens_between_two_bare_transports() {
        let rate = echo(&loaded_token(4, 8), 4, Duration::from_millis(100)).unwrap();
        assert!(rate > 0.0);
    }
}
