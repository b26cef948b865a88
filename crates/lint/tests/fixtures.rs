//! Fixture-based self-tests: every lint must fire on its known-bad
//! fixture and stay silent on its known-good one, the suppression
//! framework must report missing reasons and unused allows, and — the
//! meta-test — the current workspace must scan clean.

use gcs_lint::scan::SourceFile;
use gcs_lint::{lint_source, lints, Finding};
use std::path::Path;

/// Reads a fixture and presents it to the linter under `as_path`, which
/// is what decides lint applicability (the fixtures live under `tests/`
/// and are never scanned by the workspace walker).
fn parse_fixture(name: &str, as_path: &str) -> SourceFile {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let content =
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    SourceFile::parse(as_path, &content)
}

fn lints_fired(findings: &[Finding]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = findings.iter().map(|f| f.lint).collect();
    ids.sort();
    ids.dedup();
    ids
}

#[test]
fn determinism_fires_on_bad_fixture() {
    let src = parse_fixture("determinism_bad.rs", "crates/sim/src/fixture.rs");
    let findings = lint_source(&src);
    assert_eq!(lints_fired(&findings), vec![gcs_lint::DETERMINISM], "{findings:?}");
    // `use HashMap`, `Instant::now()`, and two `HashMap` mentions.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn determinism_is_silent_on_good_fixture() {
    let src = parse_fixture("determinism_good.rs", "crates/sim/src/fixture.rs");
    let findings = lint_source(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn determinism_does_not_apply_outside_deterministic_crates() {
    let src = parse_fixture("determinism_bad.rs", "crates/obs/src/fixture.rs");
    let findings = lint_source(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_path_fires_on_bad_fixture() {
    let src = parse_fixture("panic_path_bad.rs", "crates/net/src/transport.rs");
    let findings = lint_source(&src);
    assert_eq!(lints_fired(&findings), vec![gcs_lint::PANIC_PATH], "{findings:?}");
    // `.unwrap()`, `q[0]`, and `panic!`.
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn panic_path_is_silent_on_good_fixture() {
    let src = parse_fixture("panic_path_good.rs", "crates/net/src/transport.rs");
    let findings = lint_source(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_path_does_not_apply_off_daemon_files() {
    let src = parse_fixture("panic_path_bad.rs", "crates/net/src/codec.rs");
    let findings = lint_source(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn atomics_fires_on_bad_fixture() {
    let src = parse_fixture("atomics_bad.rs", "crates/anywhere/src/fixture.rs");
    let findings = lint_source(&src);
    assert_eq!(lints_fired(&findings), vec![gcs_lint::ATOMICS_ORDER], "{findings:?}");
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn atomics_is_silent_on_good_fixture() {
    let src = parse_fixture("atomics_good.rs", "crates/anywhere/src/fixture.rs");
    let findings = lint_source(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn mc_shim_fires_on_bad_fixture() {
    let src = parse_fixture("mc_shim_bad.rs", "crates/obs/src/trace.rs");
    let findings = lint_source(&src);
    assert_eq!(lints_fired(&findings), vec![gcs_lint::MC_SHIM], "{findings:?}");
    // `AtomicU64` (brace import), `std::sync::Mutex`, `std::thread`.
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn mc_shim_is_silent_on_good_fixture() {
    let src = parse_fixture("mc_shim_good.rs", "crates/net/src/queue.rs");
    let findings = lint_source(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn mc_shim_does_not_apply_off_ported_files() {
    let src = parse_fixture("mc_shim_bad.rs", "crates/obs/src/monitor.rs");
    let findings = lint_source(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn reasonless_allow_is_reported_but_still_suppresses() {
    let src = parse_fixture("allow_missing_reason.rs", "crates/anywhere/src/fixture.rs");
    let findings = lint_source(&src);
    assert_eq!(lints_fired(&findings), vec![gcs_lint::BAD_ALLOW], "{findings:?}");
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn unused_allow_is_reported() {
    let src = parse_fixture("allow_unused.rs", "crates/anywhere/src/fixture.rs");
    let findings = lint_source(&src);
    assert_eq!(lints_fired(&findings), vec![gcs_lint::UNUSED_ALLOW], "{findings:?}");
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn spec_cov_catches_unregistered_invariant() {
    let src = parse_fixture("invariants_bad.rs", "crates/core/src/invariants.rs");
    let findings = lints::spec_cov::check_invariants(&src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("lemma_unregistered"), "{findings:?}");
}

#[test]
fn spec_cov_accepts_fully_registered_invariants() {
    let src = parse_fixture("invariants_good.rs", "crates/core/src/invariants.rs");
    let findings = lints::spec_cov::check_invariants(&src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn spec_cov_catches_missing_decode_arm() {
    let enum_src = parse_fixture("wire_enum.rs", "crates/vsimpl/src/wire.rs");
    let codec_src = parse_fixture("codec_bad.rs", "crates/net/src/codec.rs");
    let findings = lints::spec_cov::check_wire(&enum_src, "Wire", &codec_src, "put_wire", "wire");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("Wire::Token"), "{findings:?}");
    assert!(findings[0].message.contains("decoder"), "{findings:?}");
}

#[test]
fn spec_cov_accepts_total_codec() {
    let enum_src = parse_fixture("wire_enum.rs", "crates/vsimpl/src/wire.rs");
    let codec_src = parse_fixture("codec_good.rs", "crates/net/src/codec.rs");
    let findings = lints::spec_cov::check_wire(&enum_src, "Wire", &codec_src, "put_wire", "wire");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn spec_cov_catches_driver_that_skips_an_action() {
    let src = parse_fixture("pump_bad.rs", "crates/vsimpl/src/timed_vstoto.rs");
    let findings = lints::spec_cov::check_action_calls(&src, "pump");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("VsToToProc::confirm"), "{findings:?}");
}

#[test]
fn spec_cov_accepts_driver_calling_all_four_actions() {
    let src = parse_fixture("pump_good.rs", "crates/vsimpl/src/timed_vstoto.rs");
    let findings = lints::spec_cov::check_action_calls(&src, "pump");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn spec_cov_reports_a_missing_driver() {
    let src = parse_fixture("pump_good.rs", "crates/core/src/system.rs");
    let findings = lints::spec_cov::check_action_calls(&src, "apply");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("`fn apply`"), "{findings:?}");
}

/// The meta-test: the workspace this crate ships in must scan clean —
/// every suppression carries a reason and matches a real finding, and no
/// unannotated site survives.
#[test]
fn workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = gcs_lint::run(root).expect("workspace scan");
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean, got:\n{}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 100, "suspiciously few files: {}", report.files_scanned);
}
