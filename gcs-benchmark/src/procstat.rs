//! Process accounting from `/proc/self`, and the resident-memory
//! watchdog that turns a memory regression into a failed run instead of
//! an OOM-killed box.

use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A run whose resident set passes this is aborted: its generators stop
/// and it reports what was not verified as failed.
pub const RSS_LIMIT_BYTES: u64 = 6 << 30;
/// If the resident set keeps growing to this after the abort (a view
/// change over a long history can do that on its own), the process
/// exits at once, without a result.
pub const RSS_HARD_LIMIT_BYTES: u64 = 9 << 30;

/// Set by the watchdog; generators stop submitting when they see it and
/// the run reports every operation not yet verified as failed.
pub static ABORT: AtomicBool = AtomicBool::new(false);

/// Kernel clock ticks per second for `utime`/`stime`. Linux has reported
/// 100 to user space on every architecture since 2.6 (`USER_HZ`).
const TICKS_PER_S: u64 = 100;

/// One reading of the process's own counters.
#[derive(Clone, Debug, Default)]
pub struct ProcSample {
    /// Peak resident set (`VmHWM`), bytes.
    pub hwm_bytes: u64,
    /// Current resident set (`VmRSS`), bytes.
    pub rss_bytes: u64,
    /// User plus system CPU time of every thread, live or exited, µs.
    pub cpu_us: u64,
    /// Live OS threads.
    pub threads: u64,
    /// Voluntary context switches summed over live threads.
    pub vol_ctx_switches: u64,
    /// On-CPU nanoseconds of live threads, summed by thread name.
    pub cpu_ns_by_thread_name: BTreeMap<String, u64>,
}

fn status_kb(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Reads the process's counters. Missing files read as zero: the
/// benchmark only runs on Linux, and a zero is caught by the
/// finite-and-nonzero checks downstream rather than hidden here.
pub fn sample() -> ProcSample {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2 (comm) may contain spaces; everything after the closing
    // parenthesis is space-separated, starting at field 3.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after comm
    // and state.
    let cpu_ticks = ticks(11) + ticks(12);

    let mut vol = 0;
    let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for t in tasks.flatten() {
            let dir = t.path();
            if let Ok(s) = fs::read_to_string(dir.join("status")) {
                vol += status_kb(&s, "voluntary_ctxt_switches");
            }
            let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            let on_cpu = fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next().and_then(|n| n.parse::<u64>().ok()))
                .unwrap_or(0);
            *by_name.entry(name.trim().to_string()).or_default() += on_cpu;
        }
    }

    ProcSample {
        hwm_bytes: status_kb(&status, "VmHWM") * 1024,
        rss_bytes: status_kb(&status, "VmRSS") * 1024,
        cpu_us: cpu_ticks * (1_000_000 / TICKS_PER_S),
        threads: status_kb(&status, "Threads"),
        vol_ctx_switches: vol,
        cpu_ns_by_thread_name: by_name,
    }
}

/// Starts the watchdog thread: polls `VmRSS` and raises [`ABORT`] once
/// it passes [`RSS_LIMIT_BYTES`]. The thread is a daemon for the life of
/// the process (one benchmark run).
pub fn start_rss_watchdog() {
    let spawned = std::thread::Builder::new().name("bench-watchdog".into()).spawn(|| loop {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let rss = status_kb(&status, "VmRSS") * 1024;
        if rss > RSS_HARD_LIMIT_BYTES {
            eprintln!(
                "gcs-benchmark: resident set passed {} GiB; giving up",
                RSS_HARD_LIMIT_BYTES >> 30
            );
            std::process::exit(3);
        }
        if rss > RSS_LIMIT_BYTES && !aborted() {
            eprintln!(
                "gcs-benchmark: resident set passed {} GiB; aborting the run",
                RSS_LIMIT_BYTES >> 30
            );
            // ordering: SeqCst — a stop flag read by generator threads;
            // it publishes no other data but costs nothing at this rate.
            ABORT.store(true, Ordering::SeqCst);
        }
        std::thread::sleep(Duration::from_millis(100));
    });
    if let Err(e) = spawned {
        eprintln!("gcs-benchmark: cannot start the RSS watchdog: {e}");
    }
}

/// Whether the watchdog has aborted the run.
pub fn aborted() -> bool {
    ABORT.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_sees_this_test_process() {
        let before = sample();
        assert!(before.rss_bytes > 0, "VmRSS must be readable");
        assert!(before.hwm_bytes >= before.rss_bytes / 2, "VmHWM is a peak");
        assert!(before.threads >= 1);

        // Hold a named thread alive while sampling: it must be counted
        // and found by name.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("procstat-probe".into())
            .spawn(move || {
                // Burn a little CPU so schedstat is nonzero.
                let mut x = 0u64;
                for i in 0..5_000_000u64 {
                    x = x.wrapping_mul(31).wrapping_add(i);
                }
                std::hint::black_box(x);
                ready_tx.send(()).unwrap();
                let _ = rx.recv();
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let during = sample();
        assert!(during.cpu_ns_by_thread_name.contains_key("procstat-probe"));
        assert!(during.cpu_ns_by_thread_name["procstat-probe"] > 0);
        assert!(during.threads >= 2);
        tx.send(()).unwrap();
        h.join().unwrap();

        // Touch 32 MiB: the peak must move by at least most of that.
        let block = vec![1u8; 32 << 20];
        std::hint::black_box(&block);
        let after = sample();
        assert!(after.hwm_bytes >= before.hwm_bytes);
        assert!(after.hwm_bytes >= 16 << 20);
        assert!(after.cpu_us >= before.cpu_us);
    }

    #[test]
    fn status_parser_reads_kb_fields() {
        let s = "Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t     789 kB\nThreads:\t53\n";
        assert_eq!(status_kb(s, "VmHWM"), 123_456);
        assert_eq!(status_kb(s, "VmRSS"), 789);
        assert_eq!(status_kb(s, "Threads"), 53);
        assert_eq!(status_kb(s, "Missing"), 0);
    }
}
