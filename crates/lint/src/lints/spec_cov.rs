//! `spec_coverage` — the executable specification must stay fully
//! wired.
//!
//! Three cross-checks, all over facts a lexical scan can establish:
//!
//! 1. **Invariant registration.** Every invariant predicate defined in
//!    `crates/core/src/invariants.rs` (`fn lemma_*` / `fn corollary_*`)
//!    must be referenced from `all_invariants()`. An invariant written
//!    but never registered is a proof obligation that quietly stopped
//!    being discharged — the checker suite reports green while a lemma
//!    goes unchecked.
//! 2. **Wire codec totality.** The `Wire` enum (declared in
//!    `crates/vsimpl/src/wire.rs`) must have every variant covered by
//!    both the encoder (`put_wire`) and the decoder (`fn wire`) in
//!    `crates/net/src/codec.rs`. Rust's match exhaustiveness covers the
//!    encoder only; a forgotten *decode* arm is a runtime `BadTag` for a
//!    perfectly valid peer.
//! 3. **One `VStoTO`.** Each locally controlled action of Figure 10 —
//!    `label`, `gpsnd`, `confirm`, `brcv` on `VsToToProc` — must be
//!    called in the body of both of its drivers: `apply` in
//!    `crates/core/src/system.rs` (what the invariants and the forward
//!    simulation check) and `pump` in `crates/vsimpl/src/timed_vstoto.rs`
//!    (what runs). A driver that stops calling one of them has grown its
//!    own copy of that transition, and the checkers have silently
//!    stopped certifying the code that ships.
//!
//! These findings are not suppressible: a missing registration has no
//! meaningful "allow" — fix the table.

use crate::scan::{find_word, SourceFile};
use crate::Finding;
use std::path::Path;

/// The `VsToToProc` drivers that must each call every action in
/// [`ACTIONS`]: `(file, function)`.
const ACTION_DRIVERS: [(&str, &str); 2] =
    [("crates/core/src/system.rs", "apply"), ("crates/vsimpl/src/timed_vstoto.rs", "pump")];

/// The locally controlled actions of `VStoTO_p` (Figure 10), by the name
/// of the one `VsToToProc` method that implements each.
const ACTIONS: [&str; 4] = ["label", "gpsnd", "confirm", "brcv"];

/// Runs every cross-check against its workspace location. A missing or
/// moved file is itself a finding, so a refactor cannot silently disable
/// a check.
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    match load(root, "crates/core/src/invariants.rs") {
        Ok(src) => out.extend(check_invariants(&src)),
        Err(f) => out.push(f),
    }
    match (load(root, "crates/vsimpl/src/wire.rs"), load(root, "crates/net/src/codec.rs")) {
        (Ok(enum_src), Ok(codec_src)) => {
            out.extend(check_wire(&enum_src, "Wire", &codec_src, "put_wire", "wire"))
        }
        (e1, e2) => out.extend([e1.err(), e2.err()].into_iter().flatten()),
    }
    for (file, driver_fn) in ACTION_DRIVERS {
        match load(root, file) {
            Ok(src) => out.extend(check_action_calls(&src, driver_fn)),
            Err(f) => out.push(f),
        }
    }
    out
}

fn load(root: &Path, rel: &str) -> Result<SourceFile, Finding> {
    let path = root.join(rel);
    match std::fs::read_to_string(&path) {
        Ok(content) => Ok(SourceFile::parse(rel, &content)),
        Err(e) => Err(Finding {
            lint: crate::SPEC_COVERAGE,
            file: rel.to_string(),
            line: 1,
            col: 1,
            message: format!(
                "expected file is unreadable ({e}); if the layout moved, update the \
                 spec_cov paths in crates/lint"
            ),
        }),
    }
}

/// Checks that every `fn lemma_*` / `fn corollary_*` defined in the file
/// is referenced inside the body of `all_invariants()`.
pub fn check_invariants(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let defs = fn_defs(src, &["lemma_", "corollary_"]);
    let Some(reg_line) = find_fn(src, "all_invariants") else {
        out.push(Finding::new(
            crate::SPEC_COVERAGE,
            src,
            0,
            0,
            "no `fn all_invariants` found; the invariant registry is gone".to_string(),
        ));
        return out;
    };
    let Some((start, end)) = body_range(src, reg_line) else {
        return out;
    };
    let mut registered = Vec::new();
    for line in &src.lines[start..=end] {
        registered.extend(idents(&line.code));
    }
    for (name, line0) in defs {
        if !registered.iter().any(|r| r == &name) {
            out.push(Finding::new(
                crate::SPEC_COVERAGE,
                src,
                line0,
                0,
                format!(
                    "invariant `{name}` is defined but never registered in \
                     all_invariants(); the checker suite silently skips it"
                ),
            ));
        }
    }
    out
}

/// Checks that the declared variants of `enum_name`, the `Variant::`
/// references inside `encode_fn`, and those inside `decode_fn` are the
/// same set.
pub fn check_wire(
    enum_src: &SourceFile,
    enum_name: &str,
    codec_src: &SourceFile,
    encode_fn: &str,
    decode_fn: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some((variants, _)) = enum_variants(enum_src, enum_name) else {
        out.push(Finding::new(
            crate::SPEC_COVERAGE,
            enum_src,
            0,
            0,
            format!("`enum {enum_name}` not found"),
        ));
        return out;
    };
    for (fn_name, role) in [(encode_fn, "encoder"), (decode_fn, "decoder")] {
        let Some(line0) = find_fn(codec_src, fn_name) else {
            out.push(Finding::new(
                crate::SPEC_COVERAGE,
                codec_src,
                0,
                0,
                format!("`fn {fn_name}` ({role}) not found"),
            ));
            continue;
        };
        let Some((start, end)) = body_range(codec_src, line0) else {
            continue;
        };
        let mut covered: Vec<String> = Vec::new();
        let tag = format!("{enum_name}::");
        for line in &codec_src.lines[start..=end] {
            let code = &line.code;
            let mut from = 0;
            while let Some(pos) = code[from..].find(&tag) {
                let at = from + pos + tag.len();
                let name: String =
                    code[at..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                if !name.is_empty() && !covered.contains(&name) {
                    covered.push(name);
                }
                from = at;
            }
        }
        for v in &variants {
            if !covered.contains(v) {
                out.push(Finding::new(
                    crate::SPEC_COVERAGE,
                    codec_src,
                    line0,
                    0,
                    format!(
                        "`{enum_name}::{v}` is not covered by the {role} `{fn_name}`; \
                         encode and decode must cover identical variant sets"
                    ),
                ));
            }
        }
    }
    out
}

/// Checks that the body of `driver_fn` calls every method in
/// [`ACTIONS`].
pub fn check_action_calls(src: &SourceFile, driver_fn: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(line0) = find_fn(src, driver_fn) else {
        out.push(Finding::new(
            crate::SPEC_COVERAGE,
            src,
            0,
            0,
            format!("`fn {driver_fn}` (a driver of the VStoTO actions) not found"),
        ));
        return out;
    };
    let Some((start, end)) = body_range(src, line0) else {
        return out;
    };
    for action in ACTIONS {
        let call = format!(".{action}(");
        if !src.lines[start..=end].iter().any(|l| !find_word(&l.code, &call).is_empty()) {
            out.push(Finding::new(
                crate::SPEC_COVERAGE,
                src,
                line0,
                0,
                format!(
                    "`{driver_fn}` never calls `VsToToProc::{action}`; the checked system and \
                     the running stack must perform each locally controlled action through \
                     the same function"
                ),
            ));
        }
    }
    out
}

/// `(name, line0)` of every top-level `fn` whose name starts with one of
/// `prefixes`.
fn fn_defs(src: &SourceFile, prefixes: &[&str]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, line) in src.lines.iter().enumerate() {
        for col in find_word(&line.code, "fn") {
            let rest = &line.code[col + 2..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if prefixes.iter().any(|p| name.starts_with(p)) {
                out.push((name, i));
            }
        }
    }
    out
}

/// The line of the `fn <name>` item, if any.
fn find_fn(src: &SourceFile, name: &str) -> Option<usize> {
    let needle = format!("fn {name}");
    src.lines.iter().position(|l| {
        find_word(&l.code, &needle).iter().any(|&c| {
            !l.code[c + needle.len()..].starts_with(|ch: char| ch.is_alphanumeric() || ch == '_')
        })
    })
}

/// The inclusive line range of the brace block opening at or after
/// `start_line`.
fn body_range(src: &SourceFile, start_line: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut opened = false;
    for (i, line) in src.lines.iter().enumerate().skip(start_line) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return Some((start_line, i));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// `(variant names, declaration line)` of `enum <name>`.
fn enum_variants(src: &SourceFile, name: &str) -> Option<(Vec<String>, usize)> {
    let needle = format!("enum {name}");
    let decl = src.lines.iter().position(|l| !find_word(&l.code, &needle).is_empty())?;
    let (start, end) = body_range(src, decl)?;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    for line in &src.lines[start..=end] {
        let trimmed = line.code.trim_start();
        // A variant is an uppercase identifier at nesting depth 1 (i.e.
        // directly inside the enum's braces, not inside a variant body).
        if depth == 1 {
            let variant: String =
                trimmed.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if variant.chars().next().is_some_and(|c| c.is_uppercase()) {
                variants.push(variant);
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    Some((variants, decl))
}

/// Every identifier token in a code line.
fn idents(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in code.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}
