// Known-good fixture for the `mc_shim` lint: the same structure on the
// Shims surface — atomics and locks are associated types, threads come
// from S::spawn, and only Arc is taken from std::sync. Shim atomics are
// relaxed cells and take no Ordering.
use gcs_mc::{AtomicU64Api, MutexApi, Shims, StdShims};
use std::sync::Arc;

type A64<S> = <S as Shims>::AtomicU64;

pub struct Good<S: Shims = StdShims> {
    seq: Arc<A64<S>>,
    shard: S::Mutex<Vec<u64>>,
}

impl<S: Shims> Good<S> {
    pub fn bump(&self) -> u64 {
        self.seq.fetch_add(1)
    }

    pub fn run() {
        let t = S::spawn(|| ());
        t.join();
    }
}

#[cfg(test)]
mod tests {
    // Test modules are exempt: StdShims-typed tests may drive the
    // structure with real threads.
    #[test]
    fn real_threads_are_fine_here() {
        let t = std::thread::spawn(|| 7u64);
        let _ = t.join();
    }
}
