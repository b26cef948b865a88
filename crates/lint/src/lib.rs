//! `gcs-lint`: project-specific static analysis for the pgcs workspace.
//!
//! The repository's headline guarantee — bit-for-bit reproducible
//! simulation digests, panic-free long-running daemons, fully registered
//! executable specifications — rests on source conventions nothing in
//! `rustc` or `clippy` enforces. This crate turns those conventions into
//! tier-1 CI failures with five lints:
//!
//! - [`lints::determinism`] — no wall-clock reads, OS entropy, or
//!   randomized-iteration containers in the crates whose output feeds
//!   the FNV-1a run digests;
//! - [`lints::panic_path`] — no `unwrap`/`expect`/`panic!`/indexing in
//!   the long-running daemon paths of `crates/net`;
//! - [`lints::atomics`] — every atomic `Ordering::` use carries an
//!   `// ordering: <why>` justification;
//! - [`lints::spec_cov`] — every invariant defined in `crates/core` is
//!   registered in `all_invariants()`, the `Wire` enum's encode and
//!   decode arms cover identical variant sets, and the checked system
//!   and the running stack both perform the four `VStoTO` actions
//!   through the same `VsToToProc` functions;
//! - [`lints::mc_shim`] — the modules certified by the gcs-mc model
//!   checker must reach every sync primitive through the `Shims`
//!   surface, never `std::sync` directly, so the structure the checker
//!   explores is the structure that ships.
//!
//! Findings are suppressed inline with
//! `// gcs-lint: allow(<lint-id>, reason = "…")` (or `allow-file`); a
//! suppression without a reason, or one that suppresses nothing, is
//! itself a finding. The scanner is hand-rolled and line-aware (see
//! [`scan`]) — no `syn`, no dependencies — so the full workspace scan
//! stays well under the interactive budget (~2 s) and builds offline.

pub mod lints;
pub mod scan;

use scan::{collect_allows, AllowTarget, SourceFile};
use std::fmt;
use std::path::{Path, PathBuf};

/// Lint identifiers (also the `allow(…)` ids).
pub const DETERMINISM: &str = "determinism";
/// See [`lints::panic_path`].
pub const PANIC_PATH: &str = "panic_path";
/// See [`lints::atomics`].
pub const ATOMICS_ORDER: &str = "atomics_order";
/// See [`lints::spec_cov`].
pub const SPEC_COVERAGE: &str = "spec_coverage";
/// See [`lints::mc_shim`].
pub const MC_SHIM: &str = "mc_shim";
/// Framework lint: a suppression missing its mandatory reason.
pub const BAD_ALLOW: &str = "bad_allow";
/// Framework lint: a suppression that suppresses nothing.
pub const UNUSED_ALLOW: &str = "unused_allow";

/// One lint finding. `line`/`col` are 1-based.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// The lint that fired (an `allow(…)` id).
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(
        lint: &'static str,
        src: &SourceFile,
        line0: usize,
        col0: usize,
        message: String,
    ) -> Finding {
        Finding { lint, file: src.path.clone(), line: line0 + 1, col: col0 + 1, message }
    }

    /// Renders the finding as a JSON object (hand-rolled; no deps).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"lint\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            json_escape(self.lint),
            json_escape(&self.file),
            self.line,
            self.col,
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: deny({}): {}", self.file, self.line, self.col, self.lint, self.message)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The result of a workspace run.
#[derive(Debug)]
pub struct Report {
    /// Every surviving finding, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

/// Runs every per-file lint applicable to `src` (by its path) and
/// resolves suppressions. Spec-coverage is workspace-level and not part
/// of this (see [`lints::spec_cov::check_workspace`]).
pub fn lint_source(src: &SourceFile) -> Vec<Finding> {
    let mut raw = Vec::new();
    if lints::determinism::applies(&src.path) {
        raw.extend(lints::determinism::check(src));
    }
    if lints::panic_path::applies(&src.path) {
        raw.extend(lints::panic_path::check(src));
    }
    if lints::mc_shim::applies(&src.path) {
        raw.extend(lints::mc_shim::check(src));
    }
    raw.extend(lints::atomics::check(src));
    apply_allows(src, raw)
}

/// Resolves `gcs-lint: allow(…)` suppressions against `raw` findings:
/// matched findings are dropped, reasonless suppressions become
/// [`BAD_ALLOW`] findings, and suppressions that match nothing become
/// [`UNUSED_ALLOW`] findings.
pub fn apply_allows(src: &SourceFile, raw: Vec<Finding>) -> Vec<Finding> {
    let allows = collect_allows(src);
    let mut used = vec![false; allows.len()];
    let mut out = Vec::new();

    for f in raw {
        let line0 = f.line - 1;
        let hit = allows.iter().enumerate().find(|(_, a)| {
            a.lint == f.lint
                && match a.target {
                    AllowTarget::Line(l) => l == line0,
                    AllowTarget::File => true,
                    AllowTarget::Dangling => false,
                }
        });
        match hit {
            Some((i, _)) => used[i] = true,
            None => out.push(f),
        }
    }

    for (i, a) in allows.iter().enumerate() {
        if a.reason.is_none() {
            out.push(Finding::new(
                BAD_ALLOW,
                src,
                a.line,
                0,
                format!(
                    "suppression of `{}` must carry a reason: \
                     `gcs-lint: allow({}, reason = \"…\")`",
                    a.lint, a.lint
                ),
            ));
        }
        if !used[i] {
            out.push(Finding::new(
                UNUSED_ALLOW,
                src,
                a.line,
                0,
                format!("suppression of `{}` matches no finding; remove it", a.lint),
            ));
        }
    }
    out
}

/// Scans the whole workspace under `root`: every `.rs` file in `src/`
/// and `crates/*/src/` (production source only — `tests/`, `examples/`,
/// and the vendored dependency stubs are out of scope), plus the
/// workspace-level spec-coverage cross-checks.
pub fn run(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    let top = root.join("src");
    if top.is_dir() {
        walk_rs(&top, &mut files)?;
    }
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .map_err(|e| format!("{}: {e}", crates.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let src = SourceFile::parse(&rel.display().to_string().replace('\\', "/"), &content);
        findings.extend(lint_source(&src));
    }
    findings.extend(lints::spec_cov::check_workspace(root));
    findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(Report { findings, files_scanned: files.len() })
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
