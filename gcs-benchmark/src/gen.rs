//! The benchmark's own load generator, built on the client protocol's
//! public codec (`Hello{Client}` + `SubmitBatch`/`SubmitGroup`, matched
//! against the `Deliver*` push stream).
//!
//! Two disciplines, each within the fixed budget of at most two
//! generator threads and two connections per run:
//!
//! - **closed loop** — one thread per connection keeps `window`
//!   operations outstanding: it blocks reading deliveries and refills
//!   the window itself, so a slow system receives less load. Latency is
//!   submit → delivery.
//! - **open loop** — a pacer thread submits operation `i` at
//!   `t0 + i·gap` whether or not earlier ones completed, and a reader
//!   thread matches deliveries. Latency is timed **from the instant the
//!   operation was due**, so a stall is charged to every operation it
//!   delayed, and how late the pacer itself ran is reported.
//!
//! Every operation carries its index: in the first eight bytes of the
//! value (8-byte and padded values), or through a fingerprint table (KV
//! commands). The generator records, per index, when the operation was
//! sent and when it came back; the timed window is cut out of that
//! record afterwards, so warm-up, measurement and drain share one code
//! path and nothing is sampled.

use crate::procstat;
use crate::stats::{percentile, SplitMix};
use gcs_apps::KvCmd;
use gcs_model::{ProcId, Value};
use gcs_net::codec::{read_frame, write_frame, Frame, FrameWriter, HelloKind};
use gcs_shard::ShardMap;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nanoseconds since the process-wide benchmark epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Driving discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Keep `window` operations outstanding.
    Closed { window: usize },
    /// Submit at `rate` operations per second on a fixed-interval
    /// schedule.
    Open { rate: u64 },
}

/// What the submitted values look like.
#[derive(Clone, Debug)]
pub enum Payload {
    /// The 8-byte big-endian operation id.
    Id,
    /// `len` bytes: the id, then seed-driven filler.
    Padded { len: usize },
    /// Encoded KV commands over `keys` keys, restricted to keys that
    /// `map` assigns to `group`; matched by [`Value::fingerprint`].
    Kv { keys: u64, map: ShardMap, group: u32 },
}

/// One connection's worth of load.
#[derive(Clone, Debug)]
pub struct GenConfig {
    pub addr: SocketAddr,
    /// Group the submissions are tagged for (0 = untagged frames).
    pub group: u32,
    pub pacing: Pacing,
    pub payload: Payload,
    pub seed: u64,
    /// Distinguishes the connections of one run: ids of different
    /// streams never collide.
    pub stream: u8,
}

/// Most operations one submit frame carries; bounds the catch-up burst
/// after a pacer stall.
const MAX_BATCH: u64 = 4096;

/// The seed-driven value stream of one connection: operation `idx` →
/// the bytes submitted for it, and delivered bytes → `idx`.
pub struct ValueStream {
    id_base: u64,
    payload: Payload,
    rng: SplitMix,
    filler: Vec<u8>,
    kv_seed: u64,
    by_fingerprint: HashMap<u64, u32>,
    issued: u32,
}

impl ValueStream {
    pub fn new(seed: u64, stream: u8, payload: Payload) -> Self {
        let mut rng = SplitMix::new(seed ^ (u64::from(stream) << 56));
        // Upper 32 bits: stream number in the top byte, 24 seed-driven
        // bits below it; lower 32 bits: the operation index.
        let id_base = ((u64::from(stream) + 1) << 56) | ((rng.next_u64() >> 40) << 32);
        let filler = match &payload {
            Payload::Padded { .. } => {
                (0..8192).flat_map(|_| rng.next_u64().to_le_bytes()).collect()
            }
            _ => Vec::new(),
        };
        // KV seeds are scanned upward from a seed-driven base, so the
        // key order differs by seed while tags stay unique.
        let kv_seed = (rng.next_u64() >> 24) | (u64::from(stream) << 44);
        ValueStream {
            id_base,
            payload,
            rng,
            filler,
            kv_seed,
            by_fingerprint: HashMap::new(),
            issued: 0,
        }
    }

    /// The value for the next operation index.
    pub fn next_value(&mut self) -> Value {
        let idx = self.issued;
        self.issued += 1;
        let id = self.id_base | u64::from(idx);
        match &self.payload {
            Payload::Id => Value::from_u64(id),
            Payload::Padded { len } => {
                let body = len.saturating_sub(8);
                let mut bytes = Vec::with_capacity(8 + body);
                bytes.extend_from_slice(&id.to_be_bytes());
                let room = self.filler.len().saturating_sub(body).max(1) as u64;
                let off = self.rng.below(room) as usize;
                bytes.extend_from_slice(&self.filler[off..(off + body).min(self.filler.len())]);
                Value::from(bytes)
            }
            Payload::Kv { keys, map, group } => loop {
                let cmd = KvCmd::from_seed(self.kv_seed, *keys);
                self.kv_seed += 1;
                if map.key_group(cmd.key()) == *group {
                    let v = cmd.encode();
                    self.by_fingerprint.insert(v.fingerprint(), idx);
                    break v;
                }
            },
        }
    }

    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Brings a replica of the stream (the open-loop reader's) up to
    /// `issued` operations. Only KV values need replaying, to fill the
    /// fingerprint table; ids are recognised by range.
    pub fn advance_to(&mut self, issued: u32) {
        if matches!(self.payload, Payload::Kv { .. }) {
            while self.issued < issued {
                self.next_value();
            }
        }
        self.issued = self.issued.max(issued);
    }

    /// The operation index a delivered value belongs to, if it is one
    /// of this stream's.
    pub fn index_of(&self, v: &Value) -> Option<u32> {
        match &self.payload {
            Payload::Kv { .. } => self.by_fingerprint.get(&v.fingerprint()).copied(),
            _ => {
                let head: [u8; 8] = v.as_bytes().get(..8)?.try_into().ok()?;
                let id = u64::from_be_bytes(head);
                (id >> 32 == self.id_base >> 32 && (id as u32) < self.issued).then_some(id as u32)
            }
        }
    }
}

/// Progress counters the controller polls while the threads run.
#[derive(Default)]
struct Progress {
    submitted: AtomicU64,
    delivered: AtomicU64,
    stop: AtomicBool,
}

/// What the generator threads hand back.
#[derive(Default)]
struct ThreadRecord {
    /// Per operation: when it was due (open) or submitted (closed), ns.
    sent_ns: Vec<u64>,
    /// Per operation (open loop only): when the pacer actually wrote it.
    wrote_ns: Vec<u64>,
    /// Per operation: arrival of its first delivery, ns (0 = none yet).
    done_ns: Vec<u64>,
    duplicates: u64,
    deliver_frames: u64,
    io_error: Option<String>,
}

/// A running generator on one connection.
pub struct Generator {
    stream: TcpStream,
    progress: Arc<Progress>,
    writer: Option<JoinHandle<ThreadRecord>>,
    reader: JoinHandle<ThreadRecord>,
    pacing: Pacing,
}

/// Everything recorded on one connection, to be cut by a window.
pub struct GenRecord {
    pub sent_ns: Vec<u64>,
    pub wrote_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    pub duplicates: u64,
    pub deliver_frames: u64,
    pub io_error: Option<String>,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &Frame::Hello { node: ProcId(u32::MAX), generation: 0, kind: HelloKind::Client },
    )?;
    Ok(stream)
}

fn submit_frame(group: u32, batch: Vec<Value>) -> Frame {
    if group == 0 {
        Frame::SubmitBatch(batch)
    } else {
        Frame::SubmitGroup { group, batch }
    }
}

/// Whether the reader's buffer already holds one complete frame, so
/// reading it cannot block.
fn buffer_has_frame(r: &BufReader<TcpStream>) -> bool {
    let buf = r.buffer();
    let Some(Ok(hdr)) = buf.get(..4).map(<[u8; 4]>::try_from) else { return false };
    buf.len() >= 4usize.saturating_add(u32::from_be_bytes(hdr) as usize)
}

/// The delivered values of our group carried by one frame.
fn deliveries_of(frame: Frame, group: u32, out: &mut Vec<Value>) -> bool {
    match frame {
        Frame::Deliver { a, .. } if group == 0 => out.push(a),
        Frame::DeliverBatch(batch) if group == 0 => out.extend(batch.into_iter().map(|(_, a)| a)),
        Frame::DeliverGroup { group: g, batch } if g == group => {
            out.extend(batch.into_iter().map(|(_, a)| a));
        }
        // Other groups' deliveries and pushed views share the socket.
        _ => return false,
    }
    true
}

impl Generator {
    /// Connects and starts submitting at once (the warm-up is simply the
    /// part of the record before the window the caller later cuts).
    pub fn start(cfg: GenConfig) -> io::Result<Generator> {
        let stream = connect(cfg.addr)?;
        let progress = Arc::new(Progress::default());
        let values = ValueStream::new(cfg.seed, cfg.stream, cfg.payload.clone());
        let (writer, reader) = match cfg.pacing {
            Pacing::Closed { window } => {
                let (rd, wr, p) = (stream.try_clone()?, stream.try_clone()?, progress.clone());
                let reader = std::thread::Builder::new()
                    .name("bench-gen".into())
                    .spawn(move || closed_loop(rd, wr, values, cfg.group, window.max(1), &p))?;
                (None, reader)
            }
            Pacing::Open { rate } => {
                // The reader needs the value stream to map deliveries
                // back to indices; the pacer needs it to make values.
                // Both derive it from the same seed, so they agree.
                let reader_values = ValueStream::new(cfg.seed, cfg.stream, cfg.payload.clone());
                let gap_ns = 1_000_000_000 / rate.max(1);
                let t0 = now_ns() + 1_000_000;
                let (wr, p) = (stream.try_clone()?, progress.clone());
                let writer = std::thread::Builder::new()
                    .name("bench-gen".into())
                    .spawn(move || pacer(wr, values, cfg.group, t0, gap_ns, &p))?;
                let (rd, p) = (stream.try_clone()?, progress.clone());
                let reader = std::thread::Builder::new()
                    .name("bench-gen".into())
                    .spawn(move || open_reader(rd, reader_values, cfg.group, &p))?;
                (Some(writer), reader)
            }
        };
        Ok(Generator { stream, progress, writer, reader, pacing: cfg.pacing })
    }

    /// Operations delivered back so far.
    pub fn delivered(&self) -> u64 {
        // ordering: Relaxed — a progress statistic, publishes nothing.
        self.progress.delivered.load(Ordering::Relaxed)
    }

    /// Stops submitting, waits up to `drain` for every outstanding
    /// operation to come back, then closes the connection and collects
    /// the record.
    pub fn finish(mut self, drain: Duration) -> GenRecord {
        // ordering: SeqCst — the stop flag orders against the final
        // `submitted` store the controller reads below.
        self.progress.stop.store(true, Ordering::SeqCst);
        let mut rec = ThreadRecord::default();
        if let Some(w) = self.writer.take() {
            let w = w.join().unwrap_or_default();
            rec.sent_ns = w.sent_ns;
            rec.wrote_ns = w.wrote_ns;
            rec.io_error = w.io_error;
        }
        let deadline = Instant::now() + drain;
        while Instant::now() < deadline && !self.reader.is_finished() && !procstat::aborted() {
            let submitted = self.progress.submitted.load(Ordering::SeqCst);
            if self.progress.delivered.load(Ordering::SeqCst) >= submitted {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        let r = self.reader.join().unwrap_or_default();
        if matches!(self.pacing, Pacing::Closed { .. }) {
            rec.sent_ns = r.sent_ns;
        }
        rec.done_ns = r.done_ns;
        rec.done_ns.resize(rec.sent_ns.len(), 0);
        GenRecord {
            sent_ns: rec.sent_ns,
            wrote_ns: rec.wrote_ns,
            done_ns: rec.done_ns,
            duplicates: r.duplicates,
            deliver_frames: r.deliver_frames,
            io_error: rec.io_error.or(r.io_error),
        }
    }
}

/// Marks delivered values in `done_ns`; returns how many were new.
fn mark(
    values: &ValueStream,
    burst: &[Value],
    at: u64,
    done_ns: &mut Vec<u64>,
    dup: &mut u64,
) -> u64 {
    let mut fresh = 0;
    for v in burst {
        let Some(idx) = values.index_of(v) else { continue };
        let idx = idx as usize;
        if done_ns.len() <= idx {
            done_ns.resize(idx + 1, 0);
        }
        if done_ns[idx] == 0 {
            done_ns[idx] = at;
            fresh += 1;
        } else {
            *dup += 1;
        }
    }
    fresh
}

fn closed_loop(
    rd: TcpStream,
    mut wr: TcpStream,
    mut values: ValueStream,
    group: u32,
    window: usize,
    progress: &Progress,
) -> ThreadRecord {
    let mut rec = ThreadRecord::default();
    let mut fw = FrameWriter::new();
    let mut rd = BufReader::with_capacity(256 * 1024, rd);
    let mut outstanding = 0usize;
    let mut burst: Vec<Value> = Vec::new();
    loop {
        // ordering: SeqCst — pairs with the controller's stop store.
        let stopped = progress.stop.load(Ordering::SeqCst) || procstat::aborted();
        if !stopped && outstanding < window {
            let count = (window - outstanding).min(MAX_BATCH as usize);
            let batch: Vec<Value> = (0..count).map(|_| values.next_value()).collect();
            fw.clear();
            fw.push(&submit_frame(group, batch));
            let at = now_ns();
            rec.sent_ns.extend(std::iter::repeat_n(at, count));
            outstanding += count;
            // ordering: SeqCst — the controller compares this against
            // `delivered` to decide the drain is complete.
            progress.submitted.store(rec.sent_ns.len() as u64, Ordering::SeqCst);
            if let Err(e) = fw.write_to(&mut wr) {
                // Nothing of a frame that failed to go out reaches the
                // node, so these operations were never submitted. (The
                // controller closes the socket once the drain is done,
                // which can race a last refill.)
                rec.sent_ns.truncate(rec.sent_ns.len() - count);
                progress.submitted.store(rec.sent_ns.len() as u64, Ordering::SeqCst);
                if !progress.stop.load(Ordering::SeqCst) {
                    rec.io_error = Some(format!("submit: {e}"));
                }
                return rec;
            }
        }
        // Block for the next delivery burst, then take every frame that
        // is already buffered so one refill answers the whole burst.
        burst.clear();
        loop {
            match read_frame(&mut rd) {
                Ok(Some(f)) => {
                    if deliveries_of(f, group, &mut burst) {
                        rec.deliver_frames += 1;
                    }
                }
                Ok(None) => return rec,
                Err(e) => {
                    // The controller closes the socket to end the run;
                    // that is not a failure of the system under test.
                    if !progress.stop.load(Ordering::SeqCst) {
                        rec.io_error = Some(format!("read: {e}"));
                    }
                    return rec;
                }
            }
            if !burst.is_empty() && !buffer_has_frame(&rd) {
                break;
            }
        }
        let fresh = mark(&values, &burst, now_ns(), &mut rec.done_ns, &mut rec.duplicates);
        outstanding = outstanding.saturating_sub(fresh as usize);
        progress.delivered.fetch_add(fresh, Ordering::SeqCst);
    }
}

fn pacer(
    mut wr: TcpStream,
    mut values: ValueStream,
    group: u32,
    t0: u64,
    gap_ns: u64,
    progress: &Progress,
) -> ThreadRecord {
    let mut rec = ThreadRecord::default();
    let mut fw = FrameWriter::new();
    let mut next: u64 = 0;
    loop {
        if progress.stop.load(Ordering::SeqCst) || procstat::aborted() {
            return rec;
        }
        let now = now_ns();
        let next_due = t0 + next * gap_ns;
        if now < next_due {
            std::thread::sleep(Duration::from_nanos(next_due - now));
            continue;
        }
        // Everything that has come due goes out as one frame.
        let due_count = ((now - t0) / gap_ns + 1).min(next + MAX_BATCH);
        let batch: Vec<Value> = (next..due_count).map(|_| values.next_value()).collect();
        fw.clear();
        fw.push(&submit_frame(group, batch));
        let wrote = now_ns();
        for i in next..due_count {
            rec.sent_ns.push(t0 + i * gap_ns);
            rec.wrote_ns.push(wrote);
        }
        next = due_count;
        progress.submitted.store(next, Ordering::SeqCst);
        if let Err(e) = fw.write_to(&mut wr) {
            rec.io_error = Some(format!("submit: {e}"));
            return rec;
        }
    }
}

fn open_reader(
    rd: TcpStream,
    mut values: ValueStream,
    group: u32,
    progress: &Progress,
) -> ThreadRecord {
    let mut rec = ThreadRecord::default();
    let mut rd = BufReader::with_capacity(256 * 1024, rd);
    let mut burst: Vec<Value> = Vec::new();
    loop {
        match read_frame(&mut rd) {
            Ok(Some(f)) => {
                if deliveries_of(f, group, &mut burst) {
                    rec.deliver_frames += 1;
                }
            }
            Ok(None) => return rec,
            Err(e) => {
                if !progress.stop.load(Ordering::SeqCst) {
                    rec.io_error = Some(format!("read: {e}"));
                }
                return rec;
            }
        }
        if burst.is_empty() || buffer_has_frame(&rd) {
            continue;
        }
        // Follow the pacer's stream up to what it has published, so the
        // id range check and the fingerprint table cover every delivery.
        values.advance_to(progress.submitted.load(Ordering::SeqCst) as u32);
        let fresh = mark(&values, &burst, now_ns(), &mut rec.done_ns, &mut rec.duplicates);
        burst.clear();
        progress.delivered.fetch_add(fresh, Ordering::SeqCst);
    }
}

/// The timed window cut out of one or more connection records.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Operations sent (closed) or due (open) inside the window.
    pub attempted: u64,
    /// Of those, never delivered back.
    pub undelivered: u64,
    /// Deliveries that arrived inside the window.
    pub delivered_in_window: u64,
    /// Ascending latencies of the attempted operations that completed, µs.
    pub latency_us: Vec<u64>,
    /// Ascending arrival instants of the deliveries inside the window, ns.
    pub arrivals_ns: Vec<u64>,
    /// Ascending pacer lateness (wrote − due) per attempted op, µs.
    pub lateness_us: Vec<u64>,
    pub duplicates: u64,
    pub deliver_frames: u64,
    pub deliveries_total: u64,
}

impl WindowStats {
    /// Cuts `[from_ns, to_ns)` out of the records.
    pub fn cut(records: &[GenRecord], from_ns: u64, to_ns: u64) -> WindowStats {
        let mut w = WindowStats::default();
        for r in records {
            for (i, &sent) in r.sent_ns.iter().enumerate() {
                let done = r.done_ns.get(i).copied().unwrap_or(0);
                if done != 0 {
                    w.deliveries_total += 1;
                    if (from_ns..to_ns).contains(&done) {
                        w.arrivals_ns.push(done);
                    }
                }
                if !(from_ns..to_ns).contains(&sent) {
                    continue;
                }
                w.attempted += 1;
                if done == 0 {
                    w.undelivered += 1;
                } else {
                    w.latency_us.push(done.saturating_sub(sent) / 1000);
                }
                if let Some(&wrote) = r.wrote_ns.get(i) {
                    w.lateness_us.push(wrote.saturating_sub(sent) / 1000);
                }
            }
            w.duplicates += r.duplicates;
            w.deliver_frames += r.deliver_frames;
        }
        w.delivered_in_window = w.arrivals_ns.len() as u64;
        w.latency_us.sort_unstable();
        w.arrivals_ns.sort_unstable();
        w.lateness_us.sort_unstable();
        w
    }

    /// Adds another stretch of the same window.
    pub fn absorb(&mut self, other: WindowStats) {
        self.attempted += other.attempted;
        self.undelivered += other.undelivered;
        self.delivered_in_window += other.delivered_in_window;
        self.duplicates += other.duplicates;
        self.deliver_frames += other.deliver_frames;
        self.deliveries_total += other.deliveries_total;
        for (mine, theirs) in [
            (&mut self.latency_us, other.latency_us),
            (&mut self.arrivals_ns, other.arrivals_ns),
            (&mut self.lateness_us, other.lateness_us),
        ] {
            mine.extend(theirs);
            mine.sort_unstable();
        }
    }

    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        percentile(&self.latency_us, p)
    }
}

/// A run of consecutive deliveries, timed on its own.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Block {
    pub throughput_ops_s: f64,
    pub latency_p50_us: f64,
    pub latency_mean_us: f64,
}

/// Cuts the deliveries that arrived inside `[from_ns, to_ns)` into
/// blocks of `ops` consecutive ones. A block lasts from its first
/// delivery to the first delivery of what follows it, so a closed loop
/// that turns its whole window over at once is timed turn by turn.
pub fn blocks(records: &[GenRecord], from_ns: u64, to_ns: u64, ops: usize) -> Vec<Block> {
    let mut done: Vec<(u64, u64)> = records
        .iter()
        .flat_map(|r| r.sent_ns.iter().zip(&r.done_ns))
        .filter(|(_, d)| (from_ns..to_ns).contains(*d))
        .map(|(s, d)| (*d, d.saturating_sub(*s)))
        .collect();
    done.sort_unstable();
    let mut out = Vec::new();
    for (i, block) in done.chunks_exact(ops.max(1)).enumerate() {
        let Some((next, _)) = done.get((i + 1) * ops.max(1)) else { break };
        let mut lat_ns: Vec<u64> = block.iter().map(|(_, l)| *l).collect();
        lat_ns.sort_unstable();
        out.push(Block {
            throughput_ops_s: block.len() as f64 * 1e9 / (next - block[0].0).max(1) as f64,
            latency_p50_us: percentile(&lat_ns, 50.0) as f64 / 1e3,
            latency_mean_us: lat_ns.iter().sum::<u64>() as f64 / 1e3 / block.len() as f64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn blocks_time_consecutive_deliveries() {
        // Two connections; ten deliveries 1 ms apart, each 500 us after
        // its submission, then a gap, then four more.
        let rec = |done: Vec<u64>| GenRecord {
            sent_ns: done.iter().map(|d| d - 500_000).collect(),
            wrote_ns: Vec::new(),
            done_ns: done,
            duplicates: 0,
            deliver_frames: 0,
            io_error: None,
        };
        let ms = 1_000_000;
        let a = rec((1..=5).map(|i| 2 * i * ms).collect());
        let mut b = rec((1..=5)
            .map(|i| (2 * i - 1) * ms)
            .chain([20, 21, 22, 23].map(|i| i * ms))
            .collect());
        b.done_ns.push(0); // submitted, never delivered
        b.sent_ns.push(30 * ms);
        let got = blocks(&[a, b], ms, 23 * ms, 4);
        // Deliveries inside the window: 1..=10, 20, 21, 22 (23 is the
        // open end). Blocks [1-4], [5-8], [9,10,20,21]; 22 closes the
        // third and starts none.
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].throughput_ops_s, 1000.0);
        assert_eq!(got[1].throughput_ops_s, 1000.0);
        assert_eq!(got[2].throughput_ops_s, 4.0 * 1e9 / (13.0 * ms as f64));
        assert!(got.iter().all(|b| b.latency_p50_us == 500.0 && b.latency_mean_us == 500.0));
        assert!(blocks(&[], 0, 100, 4).is_empty());
    }

    fn stream_values(seed: u64, stream: u8, payload: Payload, n: usize) -> Vec<Value> {
        let mut s = ValueStream::new(seed, stream, payload);
        (0..n).map(|_| s.next_value()).collect()
    }

    #[test]
    fn value_schedule_is_a_function_of_the_seed() {
        for payload in [Payload::Id, Payload::Padded { len: 1024 }] {
            let a = stream_values(11, 0, payload.clone(), 64);
            let b = stream_values(11, 0, payload.clone(), 64);
            let c = stream_values(12, 0, payload.clone(), 64);
            assert_eq!(a, b, "same seed, same bytes");
            assert_ne!(a, c, "another seed, other bytes");
        }
        let map = ShardMap::new(vec![
            [ProcId(0), ProcId(1)].into_iter().collect(),
            [ProcId(1), ProcId(2)].into_iter().collect(),
        ]);
        let kv = Payload::Kv { keys: 64, map: map.clone(), group: 1 };
        let a = stream_values(5, 1, kv.clone(), 64);
        assert_eq!(a, stream_values(5, 1, kv.clone(), 64));
        assert_ne!(a, stream_values(6, 1, kv, 64));
        for v in &a {
            let cmd = KvCmd::decode(v).expect("a KV command");
            assert_eq!(map.key_group(cmd.key()), 1, "keys stay in the target group");
        }
    }

    #[test]
    fn values_are_unique_and_map_back_to_their_index() {
        let mut padded = ValueStream::new(3, 0, Payload::Padded { len: 1024 });
        let mut ids = ValueStream::new(3, 1, Payload::Id);
        let mut seen = BTreeSet::new();
        for i in 0..500u32 {
            let p = padded.next_value();
            let q = ids.next_value();
            assert_eq!(p.len(), 1024);
            assert_eq!(q.len(), 8);
            assert_eq!(padded.index_of(&p), Some(i));
            assert_eq!(ids.index_of(&q), Some(i));
            // Streams never claim each other's values.
            assert_eq!(padded.index_of(&q), None);
            assert_eq!(ids.index_of(&p), None);
            assert!(seen.insert(p.as_bytes()[..8].to_vec()));
            assert!(seen.insert(q.as_bytes().to_vec()));
        }
        // An index not yet issued is not ours, whatever its prefix.
        let future = Value::from_u64(ids.id_base | 10_000);
        assert_eq!(ids.index_of(&future), None);
    }

    fn record(sent: &[u64], wrote: &[u64], done: &[u64]) -> GenRecord {
        GenRecord {
            sent_ns: sent.to_vec(),
            wrote_ns: wrote.to_vec(),
            done_ns: done.to_vec(),
            duplicates: 0,
            deliver_frames: 2,
            io_error: None,
        }
    }

    #[test]
    fn window_cut_times_from_due_and_counts_what_never_came_back() {
        // Five ops due every 1 ms from t = 1 ms; the third never comes
        // back, the fourth is delivered after the window closes.
        let ms = 1_000_000;
        let sent = [ms, 2 * ms, 3 * ms, 4 * ms, 5 * ms];
        let wrote = [ms + 10_000, 2 * ms + 20_000, 3 * ms, 4 * ms, 5 * ms + 900_000];
        let done = [ms + 300_000, 2 * ms + 500_000, 0, 9 * ms, 6 * ms];
        let w = WindowStats::cut(&[record(&sent, &wrote, &done)], ms, 5 * ms);
        assert_eq!(w.attempted, 4, "the op due at the window's end is outside it");
        assert_eq!(w.undelivered, 1);
        assert_eq!(w.delivered_in_window, 2);
        assert_eq!(w.latency_us, vec![300, 500, 5000]);
        assert_eq!(w.lateness_us, vec![0, 0, 10, 20]);
        assert_eq!(w.arrivals_ns, vec![ms + 300_000, 2 * ms + 500_000]);
        assert_eq!(w.deliveries_total, 4);
        assert_eq!(w.latency_percentile_us(50.0), 500);

        // A second stretch of the same window adds up and stays sorted.
        let mut both = w.clone();
        both.absorb(w);
        assert_eq!(both.delivered_in_window, 4);
        assert_eq!(both.latency_us, vec![300, 300, 500, 500, 5000, 5000]);
        assert_eq!(both.deliveries_total, 8);
    }
}
