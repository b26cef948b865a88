//! `determinism` — forbid nondeterminism sources in the deterministic
//! crates.
//!
//! The simulation harness's headline guarantee is a bit-for-bit
//! reproducible FNV-1a run digest across worker counts and replays.
//! Everything that executes under the virtual clock — the executable
//! specs, the protocol implementation, the network simulator, and the
//! harness world — must therefore be free of wall-clock reads
//! (`Instant::now`, `SystemTime::now`), OS entropy (`thread_rng`), and
//! containers whose iteration order is randomized per process
//! (`HashMap`, `HashSet`; use `BTreeMap`/`BTreeSet`). One stray hash-map
//! iteration silently breaks replayability — exactly the class of
//! modeling gap hand proofs miss.
//!
//! Test modules (`#[cfg(test)]`) are exempt: they do not feed digests.

use crate::scan::{find_word, SourceFile};
use crate::Finding;

/// The crates whose execution feeds deterministic run digests, and the
/// simulated-stack files of `gcs-harness` whose traces feed the
/// bit-reproducible E-series tables (the rest of that crate times and
/// fans out, so it reads the wall clock by design).
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/ioa/src/",
    "crates/model/src/",
    "crates/netsim/src/",
    "crates/sim/src/",
    "crates/vsimpl/src/",
    "crates/harness/src/stack.rs",
    "crates/harness/src/figure11.rs",
    "crates/harness/src/stats.rs",
    "crates/harness/src/sequencer.rs",
];

/// Forbidden token → why it breaks determinism.
const FORBIDDEN: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock read; deterministic code must take time from the virtual clock"),
    (
        "SystemTime::now",
        "wall-clock read; deterministic code must take time from the virtual clock",
    ),
    ("thread_rng", "OS-entropy RNG; deterministic code must use a seeded rng (e.g. ChaCha8)"),
    ("HashMap", "iteration order is randomized per process; use BTreeMap"),
    ("HashSet", "iteration order is randomized per process; use BTreeSet"),
];

/// Whether the lint applies to this workspace-relative path.
pub fn applies(path: &str) -> bool {
    DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p))
}

/// Flags every forbidden token outside test modules.
pub fn check(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (needle, why) in FORBIDDEN {
            for col in find_word(&line.code, needle) {
                out.push(Finding::new(
                    crate::DETERMINISM,
                    src,
                    i,
                    col,
                    format!("`{needle}` in a digest-deterministic crate: {why}"),
                ));
            }
        }
    }
    out
}
