//! `mc_shim` — gcs-mc-ported modules must stay on the shim surface.
//!
//! The structures the gcs-mc model checker certifies (the obs trace
//! ring, histogram core, metrics registry, and the net send queue) are
//! generic over [`gcs_mc::Shims`]: in production they compile to `std`
//! primitives through zero-cost `StdShims` wrappers, and under test the
//! `McShims` implementation routes every visible operation through the
//! cooperative scheduler. That guarantee — *the
//! structure the checker explores is the structure that ships* — dies
//! silently the moment one of these files names a `std::sync` primitive
//! directly: the code still compiles, the models still pass, and the
//! un-interposed operation is invisible to both the interleaving
//! explorer and the happens-before checker.
//!
//! This lint pins the ported files to the shim surface. Allowed from
//! `std::sync`: `Arc` (pure refcounting, no blocking or ordering
//! decisions the checker needs to see) and `atomic::Ordering` (the
//! shim API takes the real enum). Everything else — atomic cells,
//! `Mutex`/`Condvar`/`RwLock`, `mpsc` channels, `std::thread` — must go
//! through the `Shims` associated types (`S::AtomicU64`, `S::Mutex`,
//! `S::Condvar`, `S::spawn`). Test modules are exempt: `StdShims`-typed
//! unit tests may drive the structure with real threads.
//!
//! See docs/CONCURRENCY.md for the porting recipe.

use crate::scan::{find_word, SourceFile};
use crate::Finding;

/// The gcs-mc-ported modules (workspace-relative paths). Grow this list
/// when porting a new structure — the mc models only certify files that
/// are also pinned here.
const PORTED: &[&str] = &[
    "crates/obs/src/trace.rs",
    "crates/obs/src/hist.rs",
    "crates/obs/src/metrics.rs",
    "crates/net/src/queue.rs",
];

/// `std::sync` names that bypass the shim layer, with the shim-surface
/// replacement to name in the message.
const FORBIDDEN_SYNC: &[(&str, &str)] = &[
    ("AtomicBool", "S::AtomicU64 (0/1)"),
    ("AtomicU32", "S::AtomicU64"),
    ("AtomicU64", "S::AtomicU64"),
    ("AtomicUsize", "S::AtomicU64"),
    ("AtomicI32", "S::AtomicI64"),
    ("AtomicI64", "S::AtomicI64"),
    ("AtomicIsize", "S::AtomicI64"),
    ("AtomicPtr", "a shim-visible cell"),
    ("Mutex", "S::Mutex"),
    ("Condvar", "S::Condvar"),
    ("RwLock", "S::Mutex (the shim surface has no RwLock)"),
    ("Barrier", "S::Condvar"),
    ("Once", "S::Mutex"),
    ("OnceLock", "S::Mutex"),
    ("LazyLock", "S::Mutex"),
    ("mpsc", "the shim-built queue (crates/net/src/queue.rs)"),
];

/// Whether the lint applies to this workspace-relative path.
pub fn applies(path: &str) -> bool {
    PORTED.contains(&path)
}

/// Flags every direct `std::sync` primitive or `std::thread` use
/// outside test modules of a ported file.
pub fn check(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        // A `std::sync::` path on the line puts every forbidden name on
        // it in scope of the lint — this catches both direct paths
        // (`std::sync::Mutex`) and brace imports
        // (`use std::sync::{Arc, Mutex}`,
        // `use std::sync::atomic::{AtomicU64, Ordering}`).
        if line.code.contains("std::sync::") {
            for (name, replacement) in FORBIDDEN_SYNC {
                for col in find_word(&line.code, name) {
                    out.push(Finding::new(
                        crate::MC_SHIM,
                        src,
                        i,
                        col,
                        format!(
                            "`{name}` reached through `std::sync` in a gcs-mc-ported \
                             module; use {replacement} so the model checker can \
                             interpose (see docs/CONCURRENCY.md)"
                        ),
                    ));
                }
            }
        }
        for col in find_word(&line.code, "std::thread") {
            out.push(Finding::new(
                crate::MC_SHIM,
                src,
                i,
                col,
                "`std::thread` in a gcs-mc-ported module; spawn through `S::spawn` \
                 so the scheduler owns the thread (see docs/CONCURRENCY.md)"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_only_to_ported_files() {
        assert!(applies("crates/obs/src/trace.rs"));
        assert!(applies("crates/net/src/queue.rs"));
        assert!(!applies("crates/mc/src/shim_std.rs"));
        assert!(!applies("crates/net/src/transport.rs"));
    }

    #[test]
    fn arc_and_ordering_stay_allowed() {
        let src = SourceFile::parse(
            "crates/obs/src/trace.rs",
            "use std::sync::atomic::Ordering;\nuse std::sync::Arc;\n",
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn brace_imports_are_caught() {
        let src = SourceFile::parse("crates/obs/src/trace.rs", "use std::sync::{Arc, Mutex};\n");
        let f = check(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`Mutex`"), "{f:?}");
    }

    #[test]
    fn shim_associated_types_do_not_fire() {
        let src = SourceFile::parse(
            "crates/obs/src/trace.rs",
            "struct T<S: Shims> { shards: Vec<S::Mutex<u64>>, cv: S::Condvar }\n",
        );
        assert!(check(&src).is_empty());
    }
}
