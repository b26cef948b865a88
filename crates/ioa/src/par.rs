//! Parallel seed fan-out for seeded runs.
//!
//! Every statistical experiment and simulation sweep has the same
//! shape: run an independent, deterministic per-seed job for each seed
//! in a list and aggregate the results in seed order. [`par_seeds`] shards the seed list across a
//! pool of scoped worker threads (one per available core, capped at the
//! number of seeds) while keeping the aggregation **deterministic**: the
//! result vector is indexed by seed position, so the output is identical
//! to a sequential map regardless of worker count or scheduling.
//!
//! Seeds are claimed from a shared atomic cursor rather than pre-split
//! into chunks, so a straggler seed does not idle the rest of the pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` once per seed, fanning out across up to
/// [`std::thread::available_parallelism`] workers, and returns the
/// results in seed order — bit-for-bit identical to
/// `seeds.iter().map(|&s| f(s)).collect()`.
pub fn par_seeds<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_seeds_with(seeds, workers, f)
}

/// [`par_seeds`] with an explicit worker count (`workers <= 1` runs
/// sequentially on the calling thread). Exposed so the determinism
/// regression test can compare worker counts directly.
pub fn par_seeds_with<T, F>(seeds: &[u64], workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = workers.min(seeds.len());
    if workers <= 1 {
        return seeds.iter().map(|&s| f(s)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..seeds.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // ordering: Relaxed — work-stealing ticket counter; each
                // worker only needs a distinct index, which fetch_add's
                // single modification order guarantees. Results are
                // published through the slots mutex, not this counter.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let out = f(seed);
                slots.lock().expect("no panicking holder")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every seed ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_seed_order() {
        let seeds: Vec<u64> = (0..37).collect();
        let out = par_seeds(&seeds, |s| s * s);
        assert_eq!(out, seeds.iter().map(|s| s * s).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let seeds: Vec<u64> = (100..116).collect();
        let f = |s: u64| (s, s.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17));
        let sequential = par_seeds_with(&seeds, 1, f);
        for workers in [2, 3, 8, 64] {
            assert_eq!(par_seeds_with(&seeds, workers, f), sequential);
        }
    }

    #[test]
    fn empty_seed_list() {
        let out: Vec<u64> = par_seeds(&[], |s| s);
        assert!(out.is_empty());
    }
}
