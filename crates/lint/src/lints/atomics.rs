//! `atomics_order` — every atomic `Ordering::` use must carry a
//! justification.
//!
//! Memory-ordering bugs don't reproduce on x86 and don't show up in unit
//! tests; the only scalable defense is forcing the author to state the
//! intended happens-before edge (or its absence) *at the use site*,
//! where a reviewer — and the nightly ThreadSanitizer stage — can check
//! the claim. A use is justified by a comment containing `ordering:`
//! either trailing on the same line or within the contiguous run of
//! non-blank lines directly above it — one annotation covers a tight
//! group of consecutive atomic operations; a blank line ends its scope:
//!
//! ```text
//! // ordering: SeqCst — merge stamps across all nodes of a cluster
//! // must form one total order every thread agrees on.
//! self.seq.fetch_add(n, Ordering::SeqCst)
//! ```
//!
//! The archetypal hazard this guards: a Relaxed load/store pair that a
//! consumer-side ordering dependency silently relies on (a flag stored
//! after writing data that the flag's reader then reads). Relaxed is fine —
//! common, even, for counters merged at quiescence — but it must say so.
//! Test modules are exempt.

use crate::scan::SourceFile;
use crate::Finding;

const VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The marker a justification comment must contain.
pub const JUSTIFICATION: &str = "ordering:";

/// Flags every unjustified atomic `Ordering::` use outside test modules.
pub fn check(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (col, variant) in atomic_uses(&line.code) {
            if !justified(src, i) {
                out.push(Finding::new(
                    crate::ATOMICS_ORDER,
                    src,
                    i,
                    col,
                    format!(
                        "`Ordering::{variant}` lacks a justification; state the intended \
                         happens-before edge in an `// ordering: …` comment on this line \
                         or directly above"
                    ),
                ));
            }
        }
    }
    out
}

/// `(column, variant)` of every atomic ordering mention in a code line.
/// `cmp::Ordering` never collides: its variants are `Less`/`Equal`/
/// `Greater`, not the atomic set.
fn atomic_uses(code: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("Ordering::") {
        let at = from + pos;
        let rest = &code[at + "Ordering::".len()..];
        if let Some(v) = VARIANTS.iter().find(|v| {
            rest.starts_with(**v)
                && !rest[v.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        }) {
            out.push((at, *v));
        }
        from = at + "Ordering::".len();
    }
    out
}

/// How far above an atomic use a justification comment may sit. Bounds
/// the paragraph walk so an `ordering:` comment cannot accidentally
/// cover a whole function.
const PARAGRAPH_REACH: usize = 8;

/// Whether line `i` has an `ordering:` justification: trailing on the
/// line itself, or in a comment within the contiguous run of non-blank
/// lines directly above it (so one annotation covers a tight group of
/// consecutive atomic operations, e.g. a histogram's counter batch). A
/// blank line ends the paragraph and the annotation's scope.
fn justified(src: &SourceFile, i: usize) -> bool {
    if src.lines[i].comment.contains(JUSTIFICATION) {
        return true;
    }
    let mut j = i;
    while j > 0 && i - j < PARAGRAPH_REACH {
        j -= 1;
        let l = &src.lines[j];
        if l.raw.trim().is_empty() {
            break;
        }
        if l.comment.contains(JUSTIFICATION) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_ordering_is_ignored() {
        assert!(atomic_uses("a.cmp(&b) == Ordering::Less").is_empty());
        assert_eq!(atomic_uses("x.load(Ordering::Relaxed)"), vec![(7, "Relaxed")]);
        assert_eq!(atomic_uses("atomic::Ordering::SeqCst"), vec![(8, "SeqCst")]);
    }
}
