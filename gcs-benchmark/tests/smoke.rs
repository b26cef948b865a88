//! Runs the whole benchmark at smoke size and checks that what it
//! reports is what `BENCHMARK.json` promises: exactly those workloads,
//! exactly those metrics, every value finite, nothing failed.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

// The binary's own JSON reader, so the test needs no dependency.
#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
use json::Json;

fn names(spec: &Json, key: &str) -> BTreeSet<String> {
    spec.get(key)
        .expect(key)
        .as_arr()
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("a name").to_string())
        .collect()
}

fn name_ok(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn smoke_run_reports_exactly_what_benchmark_json_lists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the repository root");
    let spec =
        Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
    let workloads = names(&spec, "workloads");
    let mut metrics = names(&spec, "end_to_end");
    metrics.extend(names(&spec, "per_layer"));
    metrics.insert("failed_share".to_string());

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let started = std::time::Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_gcs-benchmark"))
        .args(["suite", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "the smoke suite failed: {status}");
    eprintln!("smoke suite took {:.1} s", started.elapsed().as_secs_f64());

    let result = Json::parse(&std::fs::read_to_string(&out).expect("the result set"))
        .expect("result set is JSON");
    let reported = result.get("workloads").and_then(Json::as_obj).expect("a workloads object");
    // The suite also runs the one workload the driver does not gate.
    let mut expected = workloads.clone();
    expected.insert("ring5_leader_open".to_string());
    assert_eq!(reported.keys().cloned().collect::<BTreeSet<_>>(), expected);
    for (workload, entries) in reported {
        let entries = entries.as_obj().expect("a metrics object");
        assert_eq!(entries.keys().cloned().collect::<BTreeSet<_>>(), metrics, "{workload}");
        for (name, entry) in entries {
            assert!(name_ok(name), "{workload}: metric name {name:?}");
            let median = entry.get("median").and_then(Json::as_f64);
            assert!(
                median.is_some_and(f64::is_finite),
                "{workload}: {name} is not a finite number"
            );
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            assert!(!unit.is_empty(), "{workload}: {name} has no unit");
        }
        let failed = entries["failed_share"].get("median").and_then(Json::as_f64);
        assert_eq!(failed, Some(0.0), "{workload}: failed_share");
    }
}
