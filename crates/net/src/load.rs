//! A load-generating TCP client: submits values over the client protocol
//! (`Hello{kind: Client}` + `Submit` frames), watches the `Deliver` push
//! stream, and reports latency/throughput histograms.
//!
//! Two driving disciplines:
//!
//! - **closed-loop**: keep a fixed window of operations outstanding;
//!   submit the next one only when one of ours is delivered back. This
//!   measures per-operation latency under a bounded offered load.
//! - **open-loop**: submit at a fixed rate regardless of deliveries.
//!   This measures how the ring behaves when the offered load is
//!   independent of its progress.

use crate::codec::{read_frame, write_frame, Frame, FrameWriter, HelloKind};
use gcs_model::{ProcId, Value};
use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The shared log-scale latency histogram (samples are microseconds
/// here). This used to be a private sample-vector type duplicated
/// between the load generator and `gcs-client`; both now record into
/// the `gcs-obs` implementation, whose percentile estimate is clamped
/// to the observed min/max (so a top-bucket query can never report a
/// value above anything actually measured) and which can be registered
/// and exposed like any other metric.
pub use gcs_obs::Histogram;

/// Driving discipline for the load generator.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Keep `window` operations outstanding.
    Closed {
        /// Outstanding-operation window.
        window: usize,
    },
    /// Submit at `rate` operations per second, regardless of deliveries.
    Open {
        /// Offered rate, operations per second.
        rate: u64,
    },
}

/// What one load run produced.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Operations submitted.
    pub submitted: u64,
    /// Of those, operations seen delivered back on the watched node.
    pub delivered: u64,
    /// Wall time from first submit to last delivery (or timeout).
    pub elapsed: Duration,
    /// Submit→deliver latency per completed operation.
    pub latency_us: Histogram,
}

impl LoadReport {
    /// Completed operations per second.
    pub fn throughput_ops(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.delivered as f64 / secs
    }
}

/// Load-generator parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// The group instance to drive. Group 0 speaks the untagged client
    /// protocol of a single ring (`SubmitBatch`/`DeliverBatch`); other
    /// groups are tagged (`SubmitGroup`/`DeliverGroup`).
    pub group: u32,
    /// Timed operations to submit.
    pub ops: u64,
    /// Driving discipline.
    pub mode: LoadMode,
    /// Give up waiting for deliveries after this long with no progress.
    pub idle_timeout: Duration,
    /// Operations submitted and completed *before* the timed window
    /// opens. They warm the ring — view formation, the cold token's
    /// first rotations — and are excluded from the histogram and the
    /// elapsed time, so the ramp-up cannot masquerade as a genuine p99
    /// tail. The warm-up takes the caller's values `0 .. warmup`; the
    /// timed range follows them.
    pub warmup: u64,
}

/// Whether the reader's buffer already holds one complete frame (so
/// draining it cannot block on the socket).
fn buffer_has_frame(r: &io::BufReader<TcpStream>) -> bool {
    let buf = r.buffer();
    let Some(hdr) = buf.get(..4) else { return false };
    let Ok(hdr) = <[u8; 4]>::try_from(hdr) else { return false };
    let len = u32::from_be_bytes(hdr) as usize;
    buf.len() >= 4usize.saturating_add(len)
}

/// Forwards the fingerprints of the values `group` delivers, with their
/// arrival instant; exits on EOF/error. Deliveries arrive in bursts (the
/// node writes one vectored batch per flush), so the reader drains every
/// frame already buffered and crosses the channel once per burst — one
/// timestamp, one send, one receiver wakeup — instead of once per
/// operation.
fn read_deliveries(stream: TcpStream, group: u32, tx: mpsc::Sender<(Vec<u64>, Instant)>) {
    let mut stream = io::BufReader::with_capacity(256 * 1024, stream);
    let mut burst: Vec<u64> = Vec::new();
    while let Ok(Some(f)) = read_frame(&mut stream) {
        match f {
            Frame::Deliver { a, .. } if group == 0 => burst.push(a.fingerprint()),
            Frame::DeliverBatch(batch) if group == 0 => {
                burst.extend(batch.iter().map(|(_, a)| a.fingerprint()));
            }
            Frame::DeliverGroup { group: g, batch } if g == group => {
                burst.extend(batch.iter().map(|(_, a)| a.fingerprint()));
            }
            // Other groups' deliveries and pushed `View` notifications
            // are skipped (the node multiplexes every subscription onto
            // this socket) — but they must still flush a pending burst
            // below, or completions collected just before one strand
            // until the next delivery arrives.
            _ => {}
        }
        if burst.is_empty() || buffer_has_frame(&stream) {
            continue;
        }
        if tx.send((std::mem::take(&mut burst), Instant::now())).is_err() {
            return;
        }
    }
}

/// What [`Session::drain`] saw.
enum Drained {
    /// At least one burst of deliveries arrived.
    Progress,
    /// Nothing arrived within the wait.
    Quiet,
    /// The connection is gone.
    Closed,
}

/// One client connection mid-run: the write half, the delivery channel
/// from the reader thread, and the operations in flight.
struct Session<F> {
    stream: TcpStream,
    fw: FrameWriter,
    rx: mpsc::Receiver<(Vec<u64>, Instant)>,
    group: u32,
    value: F,
    /// The next operation index to hand to `value`.
    next: u64,
    /// Fingerprint → the instant the operation's latency counts from.
    pending: BTreeMap<u64, Instant>,
    last_progress: Instant,
    idle_timeout: Duration,
}

impl<F: FnMut(u64) -> Value> Session<F> {
    /// Submits the next `count` operations as one coalesced batch: one
    /// frame, encoded into a reused buffer, one write. Operation `k` of
    /// the batch is timed from `from + k * gap`.
    fn submit(&mut self, count: u64, from: Instant, gap: Duration) -> io::Result<()> {
        if count == 0 {
            return Ok(());
        }
        let mut t0 = from;
        let mut batch = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let v = (self.value)(self.next);
            self.next += 1;
            self.pending.insert(v.fingerprint(), t0);
            t0 += gap;
            batch.push(v);
        }
        let frame = match self.group {
            0 => Frame::SubmitBatch(batch),
            group => Frame::SubmitGroup { group, batch },
        };
        self.fw.clear();
        self.fw.push(&frame);
        self.fw.write_to(&mut self.stream)
    }

    /// Waits up to `wait` for deliveries, then takes every burst already
    /// queued behind the first (batched tokens complete operations in
    /// bursts); calls `done(t0, at)` for each of ours.
    fn drain(&mut self, wait: Duration, mut done: impl FnMut(Instant, Instant)) -> Drained {
        let mut next = match self.rx.recv_timeout(wait) {
            Ok(burst) => Some(burst),
            Err(mpsc::RecvTimeoutError::Timeout) => return Drained::Quiet,
            Err(mpsc::RecvTimeoutError::Disconnected) => return Drained::Closed,
        };
        while let Some((xs, at)) = next {
            for x in xs {
                if let Some(t0) = self.pending.remove(&x) {
                    done(t0, at);
                }
            }
            next = self.rx.try_recv().ok();
        }
        self.last_progress = Instant::now();
        Drained::Progress
    }

    fn idle(&self) -> bool {
        self.last_progress.elapsed() > self.idle_timeout
    }

    /// Closed loop up to operation index `hi`: keep `window` operations
    /// outstanding, refilling with one batched write per drained burst,
    /// until all of them came back (or the connection idled out).
    fn closed(
        &mut self,
        window: u64,
        hi: u64,
        mut done: impl FnMut(Instant, Instant),
    ) -> io::Result<()> {
        self.submit(window.min(hi.saturating_sub(self.next)), Instant::now(), Duration::ZERO)?;
        while !self.pending.is_empty() {
            match self.drain(Duration::from_millis(50), &mut done) {
                Drained::Progress => {
                    let room = window.saturating_sub(self.pending.len() as u64);
                    let count = room.min(hi.saturating_sub(self.next));
                    self.submit(count, Instant::now(), Duration::ZERO)?;
                }
                Drained::Quiet if self.idle() => break,
                Drained::Quiet => {}
                Drained::Closed => break,
            }
        }
        Ok(())
    }

    /// Open loop up to operation index `hi`: one operation every `gap`,
    /// regardless of deliveries. Each is timed from the instant it was
    /// *due*, not the instant the batch carrying it was written — a
    /// generator that fell behind its schedule charges the delay to the
    /// operation instead of omitting it.
    fn open(
        &mut self,
        gap: Duration,
        hi: u64,
        mut done: impl FnMut(Instant, Instant),
    ) -> io::Result<()> {
        let mut due = Instant::now();
        while self.next < hi || !self.pending.is_empty() {
            // Everything that has come due since the last pass goes out
            // as one batch — at high offered rates this is the
            // difference between one syscall per op and one per tick.
            let (first_due, now) = (due, Instant::now());
            let mut burst = 0u64;
            while self.next + burst < hi && now >= due {
                burst += 1;
                due += gap;
            }
            self.submit(burst, first_due, gap)?;
            match self.drain(Duration::from_millis(1), &mut done) {
                Drained::Progress => {}
                Drained::Quiet if self.next >= hi && self.idle() => break,
                Drained::Quiet => {}
                Drained::Closed => break,
            }
        }
        Ok(())
    }
}

/// Runs one load generation session for `cfg.group` against the member
/// at `addr`.
///
/// The generator submits `value(i)` as its `i`-th operation (warm-up
/// first) and measures the time until the watched node pushes the
/// matching delivery back — i.e. full submit→total-order→deliver
/// latency through the ring, as observed at that node. Deliveries are
/// matched by [`Value::fingerprint`], the same identity the runtime
/// stamps into its trace events, so concurrent generators against one
/// cluster must submit values with distinct fingerprints (for
/// [`Value::from_u64`] payloads: disjoint integer ranges).
pub fn run_load(
    addr: SocketAddr,
    cfg: &LoadConfig,
    value: impl FnMut(u64) -> Value,
) -> io::Result<LoadReport> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &Frame::Hello { node: ProcId(u32::MAX), generation: 0, kind: HelloKind::Client },
    )?;
    let (tx, rx) = mpsc::channel();
    let read_half = stream.try_clone()?;
    let group = cfg.group;
    let reader = std::thread::spawn(move || read_deliveries(read_half, group, tx));

    let mut s = Session {
        stream,
        fw: FrameWriter::new(),
        rx,
        group,
        value,
        next: 0,
        pending: BTreeMap::new(),
        last_progress: Instant::now(),
        idle_timeout: cfg.idle_timeout,
    };

    // Warm-up phase: drive the ring through its first rotations before
    // any sample is taken.
    if cfg.warmup > 0 {
        let window = match cfg.mode {
            LoadMode::Closed { window } => window.max(1) as u64,
            LoadMode::Open { .. } => 32,
        };
        s.closed(window, cfg.warmup, |_, _| {})?;
        // Anything still outstanding belongs to the warm-up: forget it,
        // so a straggling delivery finds no pending entry and cannot
        // leak a cold-start latency into the timed histogram.
        s.pending.clear();
        s.next = cfg.warmup;
    }

    let hi = cfg.warmup + cfg.ops;
    let latency: Histogram = Histogram::new();
    let started = Instant::now();
    let mut finished_at = started;
    s.last_progress = started;
    let done = |t0: Instant, at: Instant| {
        latency.record(at.saturating_duration_since(t0).as_micros() as u64);
        finished_at = at;
    };
    match cfg.mode {
        LoadMode::Closed { window } => s.closed(window.max(1) as u64, hi, done)?,
        LoadMode::Open { rate } => {
            s.open(Duration::from_nanos(1_000_000_000 / rate.max(1)), hi, done)?
        }
    }

    let submitted = s.next - cfg.warmup;
    let delivered = latency.count();
    let elapsed =
        if delivered > 0 { finished_at.duration_since(started) } else { started.elapsed() };
    let _ = s.stream.shutdown(Shutdown::Both);
    let _ = reader.join();
    Ok(LoadReport { submitted, delivered, elapsed, latency_us: latency })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection stand-in for a node: every submitted batch comes
    /// straight back as a delivery batch under the same group tag.
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = io::BufReader::new(stream.try_clone().expect("clone"));
            while let Ok(Some(f)) = read_frame(&mut reader) {
                let own = |batch: Vec<Value>| batch.into_iter().map(|a| (ProcId(0), a)).collect();
                let reply = match f {
                    Frame::SubmitBatch(batch) => Frame::DeliverBatch(own(batch)),
                    Frame::SubmitGroup { group, batch } => {
                        Frame::DeliverGroup { group, batch: own(batch) }
                    }
                    _ => continue,
                };
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
        });
        addr
    }

    fn config(group: u32, ops: u64, mode: LoadMode, warmup: u64) -> LoadConfig {
        LoadConfig { group, ops, mode, idle_timeout: Duration::from_secs(5), warmup }
    }

    #[test]
    fn closed_loop_completes_every_op_on_tagged_and_untagged_groups() {
        for group in [0, 3] {
            let cfg = config(group, 300, LoadMode::Closed { window: 16 }, 40);
            let mut asked = Vec::new();
            let report = run_load(echo_server(), &cfg, |i| {
                asked.push(i);
                Value::from(format!("op-{i}").as_str())
            })
            .expect("run");
            assert_eq!((report.submitted, report.delivered), (300, 300), "group {group}");
            // Warm-up takes values 0..40, the timed range follows.
            assert_eq!(asked, (0..340).collect::<Vec<_>>());
        }
    }

    /// Coordinated omission: a generator that stalls (here: its value
    /// source sleeps) sends the operations that came due meanwhile late.
    /// Their latency counts from the instant they were due, so the stall
    /// shows up in full instead of vanishing from the histogram.
    #[test]
    fn open_loop_latency_counts_from_the_due_instant_across_a_stall() {
        let pause = Duration::from_millis(150);
        let cfg = config(0, 100, LoadMode::Open { rate: 1000 }, 0);
        let report = run_load(echo_server(), &cfg, |i| {
            if i == 20 {
                std::thread::sleep(pause);
            }
            Value::from_u64(i + 1)
        })
        .expect("run");
        assert_eq!(report.delivered, 100);
        let h = &report.latency_us;
        assert!(h.max() >= pause.as_micros() as u64, "stall hidden: max {} us", h.max());
        // Every operation that came due during the stall waited for its
        // remainder: at 1 ms spacing that is far more than the one
        // operation a write-time stamp would have charged.
        assert!(h.percentile(75.0) >= 50_000, "p75 {} us", h.percentile(75.0));
    }

    #[test]
    fn histogram_percentiles() {
        let h: Histogram = Histogram::new();
        for i in 1..=100 {
            h.record(i);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 50);
        // The shared histogram clamps percentile edges to the observed
        // extremes, so the ends are exact; interior percentiles are
        // bucketed (≤ 12.5% relative error at this resolution).
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(h.max(), 100);
        let p50 = h.percentile(50.0);
        assert!((44..=57).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h: Histogram = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.max(), 0);
    }
}
