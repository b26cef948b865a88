//! One CPU for the whole run, and the less disturbed one at that.
//!
//! The benchmark's host is a small virtual machine on shared hardware.
//! Each of its CPUs, independently of the others, drops to about two
//! thirds of its speed for seconds to a minute at a time (two pinned
//! spin loops side by side: one at 11.5 ms a round throughout, the other
//! at 16.7 ms for most of 45 s). A stack spread over both CPUs runs at a
//! mixture of the two speeds that never repeats. So a run confines
//! itself, every thread of it, to one CPU, and before each stretch of
//! measuring it times a fixed loop on every CPU it may use and moves to
//! the fastest. What is then measured is the CPU work of the whole stack
//! per operation, not how well it spreads over cores.
//!
//! The loop's time says where a CPU is now, not where it will be a
//! second on: scaling a stretch's numbers by the loop's time before and
//! after it was tried and spread them more, not less.

use std::time::Instant;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPU sets of up to 1024 CPUs, the kernel's default limit.
const MASK_WORDS: usize = 16;
/// No more CPUs than this are timed: the search is for one quiet CPU,
/// not for the quietest of a large machine.
const MAX_CANDIDATES: usize = 8;

fn set_affinity(tid: i32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for c in cpus.iter().filter(|c| **c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: the mask outlives the call and its size is the one passed.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPUs the calling thread may run on.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the mask outlives the call and its size is the one passed.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } >= 0;
    if !ok {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|c| mask[c / 64] & (1 << (c % 64)) != 0).collect()
}

/// A fixed amount of work with several independent chains of arithmetic
/// over a buffer the size of a second-level cache, so that it slows down
/// with whatever slows the stack down: a busy sibling thread, a stolen
/// time slice, a contended cache.
fn fixed_work(buf: &mut [u64]) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for _ in 0..64 {
        for x in buf.iter_mut() {
            a = a.wrapping_mul(31).wrapping_add(*x);
            b = (b ^ *x).rotate_left(7);
            c = c.wrapping_add(*x >> 3);
            d = d.wrapping_sub(*x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            *x = x.wrapping_add(a ^ d);
        }
    }
    a ^ b ^ c ^ d
}

/// Every thread of this process, the caller included.
fn threads() -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks.flatten().filter_map(|t| t.file_name().to_str()?.parse().ok()).collect()
}

/// The CPUs this process may use, remembered from before the first move.
fn candidates() -> &'static [usize] {
    static CANDIDATES: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CANDIDATES.get_or_init(|| allowed().into_iter().take(MAX_CANDIDATES).collect())
}

/// Times the fixed work on every CPU the process may use, three rounds
/// each in turn, and moves every thread of the process to the CPU with
/// the lowest median. Returns false where affinity cannot be set, and
/// the run goes on unpinned.
pub fn move_to_fastest_cpu() -> bool {
    let cpus = candidates();
    let mut buf = vec![0x0123_4567_89ab_cdefu64; 32 * 1024];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cpus.len()];
    for _ in 0..3 {
        for (i, cpu) in cpus.iter().enumerate() {
            if !set_affinity(0, &[*cpu]) {
                return false;
            }
            let started = Instant::now();
            std::hint::black_box(fixed_work(&mut buf));
            times[i].push(started.elapsed().as_secs_f64());
        }
    }
    let fastest = times
        .iter()
        .map(|t| crate::stats::median(t))
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| cpus[i]);
    let Some(cpu) = fastest else { return false };
    for tid in threads() {
        // A thread that has ended since it was listed is no failure.
        set_affinity(tid, &[cpu]);
    }
    set_affinity(0, &[cpu])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_confines_every_thread_to_one_allowed_cpu() {
        let before = allowed();
        assert!(!before.is_empty(), "the test process may run somewhere");
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (report_tx, report_rx) = std::sync::mpsc::channel();
        let other = std::thread::spawn(move || {
            let _ = rx.recv();
            report_tx.send(allowed()).unwrap();
        });
        if !move_to_fastest_cpu() {
            return;
        }
        let now = allowed();
        assert!(now.len() == 1 && before.contains(&now[0]), "{now:?} of {before:?}");
        let cpu = now[0];
        tx.send(()).unwrap();
        assert_eq!(report_rx.recv().unwrap(), [cpu], "a thread started earlier moved too");
        other.join().unwrap();
        // Give the test harness its CPUs back.
        for tid in threads() {
            set_affinity(tid, &before);
        }
    }
}
